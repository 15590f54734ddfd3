"""Analysis/synthesis pair, frame bounds, diagonal defect, reconstruction."""

import math

import numpy as np
import pytest

from pdsampling import (
    CapacityError,
    KernelSpec,
    SampleSet,
    SingularMatrixError,
    ValidationError,
    analysis,
    build_gram,
    dual_frame_coefficients,
    eval_kernel,
    frame_bounds_truncated,
    parseval_defect,
    reconstruct,
    sinc_pi,
    synthesis,
)
from pdsampling import frames

BM = KernelSpec.brownian()
SINC = KernelSpec.sinc()


def integer_nodes(radius):
    return SampleSet.of([float(v) for v in range(-radius, radius + 1)])


class TestAnalysis:
    def test_kernel_section_samples(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        v = analysis(BM, s, lambda t: eval_kernel(BM, t, 2.0))
        np.testing.assert_array_equal(v, [1.0, 2.0, 2.0])

    def test_zero_function(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(analysis(BM, s, lambda t: 0.0), np.zeros(3))

    def test_sinc_at_integers(self):
        s = SampleSet.of([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(analysis(SINC, s, sinc_pi), [1.0, 0.0, 0.0])

    def test_sample_set_validated(self):
        with pytest.raises(ValidationError):
            analysis(BM, SampleSet.of([0.0, 1.0]), lambda t: t)


class TestSynthesis:
    def test_single_section(self):
        f = synthesis(BM, SampleSet.of([1.0, 2.0]), [1.0, 0.0])
        for t in (0.3, 1.0, 1.7, 5.0):
            assert f(t) == min(t, 1.0)

    def test_node_values_are_gram_multiply(self):
        f = synthesis(BM, SampleSet.of([1.0, 2.0]), [2.0, -1.0])
        assert abs(f(1.0) - 1.0) <= 1e-12
        assert abs(f(2.0) - 0.0) <= 1e-12

    def test_zero_coefficients(self):
        f = synthesis(BM, SampleSet.of([1.0, 2.0]), [0.0, 0.0])
        assert f(1.7) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            synthesis(BM, SampleSet.of([1.0, 2.0]), [1.0])

    def test_non_finite_coefficients(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                synthesis(BM, SampleSet.of([1.0, 2.0]), [1.0, bad])

    def test_evaluation_is_deterministic(self):
        rng = np.random.default_rng(31)
        s = SampleSet.of(sorted(rng.uniform(0.1, 9.0, 12).tolist()))
        f = synthesis(BM, s, rng.standard_normal(12).tolist())
        assert f(3.21) == f(3.21)

    def test_analysis_of_synthesis_is_gram_action(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            pts = np.sort(rng.uniform(0.2, 8.0, 6))
            if np.any(np.diff(pts) < 1e-3):
                continue
            s = SampleSet.of(pts.tolist())
            c = rng.standard_normal(6)
            f = synthesis(BM, s, c.tolist())
            g = build_gram(BM, s)
            np.testing.assert_allclose(analysis(BM, s, f), g.entries @ c, atol=1e-12)


class TestFrameBounds:
    def test_sinc_integer_nodes_tight(self):
        a, b = frame_bounds_truncated(SINC, integer_nodes(50))
        assert abs(a - 1.0) <= 1e-12
        assert abs(b - 1.0) <= 1e-12

    def test_brownian_two_points_closed_form(self):
        a, b = frame_bounds_truncated(BM, SampleSet.of([1.0, 2.0]))
        lam_hi = (3.0 + math.sqrt(5.0)) / 2.0
        lam_lo = (3.0 - math.sqrt(5.0)) / 2.0
        assert abs(a - 1.0 / lam_hi) <= 1e-12
        assert abs(b - 1.0 / lam_lo) <= 1e-12

    def test_singleton(self):
        a, b = frame_bounds_truncated(BM, SampleSet.of([4.0]))
        assert a == b == 0.25

    def test_degenerate_set_raises(self):
        with pytest.raises(SingularMatrixError):
            frame_bounds_truncated(BM, SampleSet.of([1.0, 1.0 + 1e-14]))

    def test_sandwich_with_extremes(self):
        """a c'G^2c <= c'Gc <= b c'G^2c, tight at the extreme eigenvectors."""
        rng = np.random.default_rng(41)
        pts = np.sort(rng.uniform(0.3, 7.0, 8))
        s = SampleSet.of(pts.tolist())
        g = build_gram(BM, s).entries
        a, b = frame_bounds_truncated(BM, s)
        g2 = g @ g
        for _ in range(50):
            c = rng.standard_normal(8)
            lhs = a * (c @ g2 @ c)
            mid = c @ g @ c
            rhs = b * (c @ g2 @ c)
            assert lhs <= mid * (1 + 1e-12)
            assert mid <= rhs * (1 + 1e-12)
        eigvals, eigvecs = np.linalg.eigh(g)
        for idx, bound in ((-1, a), (0, b)):
            c = eigvecs[:, idx]
            ratio = (c @ g @ c) / (c @ g2 @ c)
            assert abs(ratio - bound) <= 1e-8


class TestParsevalDefect:
    def test_sinc_on_a_sample_point(self):
        rep = parseval_defect(SINC, integer_nodes(10), [0.0])
        assert rep.parseval_defect == 0.0

    def test_brownian_two_points_not_parseval(self):
        rep = parseval_defect(BM, SampleSet.of([1.0, 2.0]), [1.0])
        assert abs(rep.parseval_defect - 1.0) <= 1e-15

    def test_sinc_defect_shrinks_with_radius(self):
        grid = [0.25, 0.5]
        d_small = parseval_defect(SINC, integer_nodes(50), grid).parseval_defect
        d_big = parseval_defect(SINC, integer_nodes(400), grid).parseval_defect
        assert d_big < d_small

    def test_tail_bound_formula(self):
        grid = [0.25, 0.5]
        rep = parseval_defect(SINC, integer_nodes(100), grid)
        assert rep.tail_bound == 2.0 / (math.pi**2 * (100 - 0.5))
        assert rep.parseval_defect <= rep.tail_bound * 1.05

    def test_tail_budget_enforced(self):
        grid = [0.25]
        with pytest.raises(ValidationError):
            parseval_defect(SINC, integer_nodes(20), grid, tail_budget=1e-6)
        rep = parseval_defect(SINC, integer_nodes(20), grid, tail_budget=1.0)
        assert rep.tail_bound is not None

    def test_budget_without_tail_bound_rejected(self):
        with pytest.raises(ValidationError):
            parseval_defect(BM, SampleSet.of([1.0, 2.0]), [1.0], tail_budget=1.0)

    def test_non_integer_nodes_have_no_tail(self):
        s = SampleSet.of([-2.0, -1.0, 0.5, 1.0, 2.0])
        rep = parseval_defect(SINC, s, [0.25])
        assert rep.tail_bound is None

    def test_gapped_integer_nodes_have_no_tail(self):
        s = SampleSet.of([-10.0, 0.0, 10.0])
        rep = parseval_defect(SINC, s, [0.5])
        assert rep.tail_bound is None
        with pytest.raises(ValidationError):
            parseval_defect(SINC, s, [0.5], tail_budget=0.1)

    def test_truncation_field_holds_sample_set(self):
        s = integer_nodes(5)
        rep = parseval_defect(SINC, s, [0.25])
        assert rep.truncation is s

    def test_bounds_off_by_default(self):
        rep = parseval_defect(SINC, integer_nodes(5), [0.25])
        assert rep.lower_bound is None and rep.upper_bound is None
        rep = parseval_defect(SINC, integer_nodes(5), [0.25], include_bounds=True)
        assert abs(rep.lower_bound - 1.0) <= 1e-12
        assert abs(rep.upper_bound - 1.0) <= 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            parseval_defect(SINC, integer_nodes(5), [])


    def test_block_past_the_entry_ceiling_is_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(frames, "MAX_GRAM_ENTRIES", 6)
        assert parseval_defect(BM, SampleSet.of([1.0, 2.0]), [1.0, 2.0, 3.0]).parseval_defect >= 0

        def refuse(*args):
            raise AssertionError("Parseval block built past the entry ceiling")

        monkeypatch.setattr(frames, "kernel_values", refuse)
        with pytest.raises(CapacityError, match="ceiling 6"):
            parseval_defect(BM, SampleSet.of([1.0, 2.0]), [1.0, 2.0, 3.0, 4.0])


class TestReconstruct:
    def test_unit_sample_at_node(self):
        s = integer_nodes(5)
        samples = [0.0] * len(s)
        samples[5] = 1.0  # node 0
        assert reconstruct(SINC, s, samples, 0.0) == 1.0

    def test_zero_samples(self):
        s = integer_nodes(5)
        assert reconstruct(SINC, s, [0.0] * len(s), 0.3) == 0.0

    def test_shifted_sinc_partial_series(self):
        s = integer_nodes(300)
        samples = [sinc_pi(p - 0.3) for p in s.points]
        value = reconstruct(SINC, s, samples, 0.3)
        assert abs(value - 1.0) <= 1e-2


class TestDualFrame:
    def test_two_point_interpolation(self):
        f = dual_frame_coefficients(BM, SampleSet.of([1.0, 2.0]), [1.0, 1.0])
        np.testing.assert_allclose(f.coefficients, [1.0, 0.0], atol=1e-14)

    def test_identity_gram_passthrough(self):
        s = integer_nodes(3)
        y = [0.5, -1.0, 2.0, 0.0, 3.0, 1.0, -2.0]
        f = dual_frame_coefficients(SINC, s, y)
        np.testing.assert_array_equal(f.coefficients, y)

    def test_round_trip_through_gram(self):
        rng = np.random.default_rng(43)
        pts = np.sort(rng.uniform(0.2, 9.0, 10))
        s = SampleSet.of(pts.tolist())
        g = build_gram(BM, s)
        c = rng.standard_normal(10)
        f = dual_frame_coefficients(BM, s, g.entries @ c)
        np.testing.assert_allclose(f.coefficients, c, atol=1e-9)

    def test_interpolates_samples(self):
        rng = np.random.default_rng(47)
        pts = np.sort(rng.uniform(0.5, 6.0, 7))
        s = SampleSet.of(pts.tolist())
        y = rng.standard_normal(7)
        f = dual_frame_coefficients(BM, s, y)
        for p, target in zip(s.points, y):
            assert abs(f(p) - target) <= 1e-9 * max(1.0, abs(target))


class TestAdjointIdentity:
    def test_pairings_agree(self):
        """xi'Gc computed two ways stays within 1e-10."""
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            pts = np.sort(rng.uniform(0.1, 10.0, n))
            if np.any(np.diff(pts) < 1e-4):
                continue
            s = SampleSet.of(pts.tolist())
            g = build_gram(BM, s)
            xi = rng.standard_normal(n)
            c = rng.standard_normal(n)
            direct = xi @ g.entries @ c
            via_samples = xi @ analysis(BM, s, synthesis(BM, s, c))
            assert abs(direct - via_samples) <= 1e-10 * max(1.0, abs(direct))
