"""Projection-norm sequences, closed forms, and the bounded/diverging verdict."""

import numpy as np
import pytest

from pdsampling import (
    KernelSpec,
    SampleSet,
    SingularMatrixError,
    ValidationError,
    binom,
    binomial_projection_norm_closed,
    bridge_delta_norm_closed,
    brownian_delta_norm_closed,
    build_gram,
    cholesky_factor,
    cholesky_solve,
    mass_verdict,
    membership_probe,
    probe_report,
    projection_norm_sequence,
)
from pdsampling import massprobe

BM = KernelSpec.brownian()
BRIDGE = KernelSpec.bridge()
BINOMIAL = KernelSpec.binomial()


def sparse_points(i_max):
    """The triangular-number set 1, 3, 6, ... starting from index 2."""
    return [i * (i - 1) / 2.0 for i in range(2, i_max + 1)]


class TestProjectionNormSequence:
    def test_brownian_stabilizes_immediately(self):
        s = SampleSet.of([1.0, 2.0, 3.0, 4.0])
        norms = projection_norm_sequence(BM, s, 0, 4)
        np.testing.assert_allclose(norms, [1.0, 2.0, 2.0, 2.0], atol=1e-12)

    def test_binomial_partial_sums(self):
        s = SampleSet.of([0, 1, 2, 3])
        norms = projection_norm_sequence(BINOMIAL, s, 1, 4)
        np.testing.assert_allclose(norms, [0.0, 1.0, 5.0, 14.0], atol=1e-9)

    def test_first_entry_is_reciprocal_diagonal(self):
        s = SampleSet.of([3.0, 5.0])
        norms = projection_norm_sequence(BM, s, 0, 1)
        assert norms == [1.0 / 3.0]

    def test_prefixes_before_target_are_zero(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        norms = projection_norm_sequence(BM, s, 2, 3)
        assert norms[0] == 0.0 and norms[1] == 0.0
        assert norms[2] > 0.0

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            pts = np.sort(rng.uniform(0.1, 9.0, n))
            if np.any(np.diff(pts) < 1e-3):
                continue
            s = SampleSet.of(pts.tolist())
            x_index = int(rng.integers(0, n))
            norms = projection_norm_sequence(BM, s, x_index, n)
            for a, b in zip(norms, norms[1:]):
                assert b >= a - 1e-12

    def test_index_bounds_checked(self):
        s = SampleSet.of([1.0, 2.0])
        with pytest.raises(ValidationError):
            projection_norm_sequence(BM, s, 2, 2)
        with pytest.raises(ValidationError):
            projection_norm_sequence(BM, s, 0, 3)


class TestBrownianClosedForm:
    def test_first_point(self):
        assert brownian_delta_norm_closed(SampleSet.of([1.0, 2.0, 3.0]), 0) == 2.0

    def test_interior(self):
        assert brownian_delta_norm_closed(SampleSet.of([1.0, 2.0, 3.0]), 1) == 2.0

    def test_sparse_family(self):
        s = SampleSet.of(sparse_points(50))
        for j in range(1, len(s) - 1):
            i = j + 2  # index in the generating family
            expected = (2 * i - 1) / ((i - 1) * i)
            assert abs(brownian_delta_norm_closed(s, j) - expected) <= 1e-12

    def test_matches_probe_limit(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            pts = np.sort(rng.uniform(0.2, 9.0, 8))
            if np.any(np.diff(pts) < 1e-2):
                continue
            s = SampleSet.of(pts.tolist())
            for i in (0, 3, 6):
                closed = brownian_delta_norm_closed(s, i)
                norms = projection_norm_sequence(BM, s, i, 8)
                assert abs(norms[-1] - closed) <= 1e-10 * max(1.0, closed)

    def test_last_index_rejected(self):
        with pytest.raises(ValidationError):
            brownian_delta_norm_closed(SampleSet.of([1.0, 2.0]), 1)


class TestBridgeClosedForm:
    def test_asymmetric_triple(self):
        value = bridge_delta_norm_closed(SampleSet.of([0.2, 0.5, 0.9]), 1)
        assert abs(value - 0.7 / (0.4 * 0.3)) <= 1e-12

    def test_symmetric_triple(self):
        assert bridge_delta_norm_closed(SampleSet.of([0.25, 0.5, 0.75]), 1) == 8.0

    def test_grows_without_bound_toward_one(self):
        values = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            s = SampleSet.of([1.0 - 3 * eps, 1.0 - 2 * eps, 1.0 - eps])
            values.append(bridge_delta_norm_closed(s, 1))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e3

    def test_matches_probe(self):
        s = SampleSet.of([0.2, 0.5, 0.9])
        norms = projection_norm_sequence(BRIDGE, s, 1, 3)
        closed = bridge_delta_norm_closed(s, 1)
        assert abs(norms[-1] - closed) <= 1e-10 * closed

    def test_boundary_index_rejected(self):
        s = SampleSet.of([0.2, 0.5, 0.9])
        with pytest.raises(ValidationError):
            bridge_delta_norm_closed(s, 0)
        with pytest.raises(ValidationError):
            bridge_delta_norm_closed(s, 2)


class TestBinomialClosedForm:
    def test_small_sums(self):
        assert binomial_projection_norm_closed(1, 3) == 14
        assert binomial_projection_norm_closed(0, 2) == 3

    def test_divergence_witness(self):
        value = binomial_projection_norm_closed(5, 25)
        assert value > 2.8e9
        assert value == sum(binom(k, 5) ** 2 for k in range(5, 26))

    def test_strictly_increasing_in_depth(self):
        previous = 0
        for n in range(3, 20):
            current = binomial_projection_norm_closed(3, n)
            assert current > previous
            previous = current

    def test_matches_gram_inverse_diagonal(self):
        s = SampleSet.of(list(range(8)))
        norms = projection_norm_sequence(BINOMIAL, s, 2, 8)
        for n in range(3, 9):
            exact = binomial_projection_norm_closed(2, n - 1)
            assert abs(norms[n - 1] - exact) <= 1e-8 * exact

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            binomial_projection_norm_closed(-1, 3)
        with pytest.raises(ValidationError):
            binomial_projection_norm_closed(4, 3)


class TestMassVerdict:
    def test_flat_with_closed_form(self):
        v = mass_verdict([2.0, 2.0, 2.0, 2.0, 2.0], closed_form=2.0)
        assert v.kind == "bounded"
        assert v.limit == 2.0

    def test_geometric_growth(self):
        norms = [float(binomial_projection_norm_closed(1, n)) for n in range(1, 9)]
        assert mass_verdict(norms).kind == "diverging"

    def test_too_short(self):
        assert mass_verdict([1.0, 2.0]).kind == "inconclusive"

    def test_flat_but_wrong_closed_form(self):
        v = mass_verdict([2.0] * 8, closed_form=3.0)
        assert v.kind == "inconclusive"

    def test_flat_without_closed_form(self):
        v = mass_verdict([5.0] * 6)
        assert v.kind == "bounded"
        assert v.limit == 5.0

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError):
            mass_verdict([1.0, 3.0, 2.0])


class TestMembershipProbe:
    def test_kernel_section_is_flat(self):
        s = SampleSet.of([1.0, 2.0, 3.0, 4.0])
        f = [min(p, 1.0) for p in s.points]
        norms = membership_probe(BM, s, f, 4)
        np.testing.assert_allclose(norms, [1.0] * 4, atol=1e-10)

    def test_delta_reduces_to_projection_sequence(self):
        s = SampleSet.of([1.0, 2.0, 3.0, 4.0])
        delta = [0.0, 1.0, 0.0, 0.0]
        a = membership_probe(BM, s, delta, 4)
        b = projection_norm_sequence(BM, s, 1, 4)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_data(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        assert membership_probe(BM, s, [0.0, 0.0, 0.0], 3) == [0.0, 0.0, 0.0]

    def test_length_checked(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            membership_probe(BM, s, [1.0, 2.0], 3)


class TestProbeReport:
    def test_brownian_long_prefix_bounded(self):
        s = SampleSet.of([float(k) for k in range(1, 41)])
        rep = probe_report(BM, s, 0)
        assert rep.verdict.kind == "bounded"
        assert abs(rep.verdict.limit - 2.0) <= 1e-10
        assert rep.closed_form == 2.0
        assert len(rep.norms) == 40

    def test_binomial_diverges(self):
        s = SampleSet.of(list(range(26)))
        rep = probe_report(BINOMIAL, s, 5)
        assert rep.verdict.kind == "diverging"
        assert rep.norms[-1] > 2.8e9
        assert rep.closed_form == float(binomial_projection_norm_closed(5, 25))

    def test_short_prefix_inconclusive(self):
        s = SampleSet.of([1.0, 2.0, 3.0, 4.0])
        rep = probe_report(BM, s, 0)
        assert rep.verdict.kind == "inconclusive"

    def test_near_duplicate_truncates_to_divergence(self):
        s = SampleSet.of([1.0, 2.0, 2.0 + 1e-14, 3.0])
        rep = probe_report(BM, s, 0)
        assert rep.verdict.kind == "diverging"
        assert len(rep.norms) < 4

    def test_singular_first_prefix_raises(self):
        s = SampleSet.of([1.0, 1.0 + 1e-14, 2.0])
        with pytest.raises(SingularMatrixError) as info:
            probe_report(BM, s, 1)
        assert info.value.pivot_index == 1
        with pytest.raises(SingularMatrixError) as info:
            projection_norm_sequence(BM, SampleSet.of([1e-13, 1.0]), 0, 1)
        assert info.value.pivot_index == 0

    def test_binomial_0_40_truncates_at_first_rejected_prefix(self):
        """The float Gram is exact over 0..28 only; every kept entry is the exact sum."""
        s = SampleSet.of(list(range(41)))
        entries = build_gram(BINOMIAL, s)
        with pytest.raises(SingularMatrixError) as info:
            cholesky_factor(entries)
        j = info.value.pivot_index
        assert j == 29
        cholesky_factor(entries[:j, :j])
        for x in range(10):
            rep = probe_report(BINOMIAL, s, x)
            assert len(rep.norms) == j
            assert rep.norms[:x] == (0.0,) * x
            for n in range(x + 1, j + 1):
                exact = binomial_projection_norm_closed(x, n - 1)
                assert abs(rep.norms[n - 1] - exact) <= 1e-15 * exact, (x, n)
            assert rep.verdict.kind == "diverging"
            assert rep.closed_form == float(binomial_projection_norm_closed(x, 40))

    def test_one_factor_pass_per_report(self, monkeypatch):
        """The truncated binomial report reads its prefix off the failed pass."""
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            return wrapper

        monkeypatch.setattr(massprobe, "_factor_prefix", counted("prefix", massprobe._factor_prefix))
        monkeypatch.setattr(massprobe, "cholesky_factor", counted("full", massprobe.cholesky_factor))
        rep = probe_report(BINOMIAL, SampleSet.of(list(range(41))), 3)
        assert len(rep.norms) == 29
        assert calls == ["prefix"]

    @pytest.mark.parametrize("m", [31, 32, 33, 40, 65])
    def test_truncated_norms_are_the_longest_prefix_sequence(self, m):
        """A near-duplicate at index m, across block boundaries, truncates to m entries."""
        pts = [float(k) for k in range(1, 101)]
        pts.insert(m, pts[m - 1] + 1e-13)
        v = SampleSet.of(pts)
        for x in (0, m // 2, m - 1):
            rep = probe_report(BM, v, x)
            want = projection_norm_sequence(BM, v, x, m)
            assert len(rep.norms) == m
            assert np.array(rep.norms).tobytes() == np.array(want).tobytes(), x
            assert rep.verdict.kind == "diverging"

    def test_pivot_before_target_raises_the_factor_error(self):
        pts = [float(k) for k in range(1, 21)]
        pts.insert(3, pts[2] + 1e-13)
        v = SampleSet.of(pts)
        with pytest.raises(SingularMatrixError) as want:
            cholesky_factor(build_gram(BM, v))
        with pytest.raises(SingularMatrixError) as info:
            probe_report(BM, v, 10)
        assert info.value.pivot_index == 3
        assert str(info.value) == str(want.value)
        assert str(info.value).startswith("matrix is singular or indefinite: pivot ")
        assert str(info.value).endswith(" at index 3 (floor 1e-12)")

    @pytest.mark.parametrize("spec, x", [(BM, 0), (BRIDGE, 1)])
    def test_underflowing_points_raise_the_factor_error(self, spec, x):
        # The closed form divides by (1e-300)^2, which underflows to 0.0; the
        # factor fails at pivot 0 first, so the oracle never runs.
        with pytest.raises(SingularMatrixError) as info:
            probe_report(spec, SampleSet.of([1e-300, 2e-300, 3e-300]), x)
        assert info.value.pivot_index == 0


class TestDichotomy:
    def test_brownian_bounded_binomial_diverging(self):
        """Interior probes settle for min(s,t) kernels, never for binomial."""
        pts = [0.5, 1.25, 2.0, 3.5, 4.0, 5.5, 6.25, 7.0, 8.5, 9.0]
        s = SampleSet.of(pts)
        for i in (1, 4, 7):
            closed = brownian_delta_norm_closed(s, i)
            norms = projection_norm_sequence(BM, s, i, len(pts))
            assert abs(norms[-1] - closed) <= 1e-9 * closed
        # Depths chosen so the window-growth factor certifies each target:
        # the x=0 sequence grows only linearly and needs a shallow window.
        for x, depth in ((0, 10), (3, 20), (7, 20)):
            rep = probe_report(BINOMIAL, SampleSet.of(list(range(depth))), x)
            assert rep.verdict.kind == "diverging"

    def test_two_point_dual_coefficients(self):
        """The n=2 solve yields (x2/(x1(x2-x1)), -1/(x2-x1))."""
        rng = np.random.default_rng(79)
        for _ in range(20):
            x1, gap = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            x2 = x1 + gap
            g = build_gram(BM, SampleSet.of([x1, x2]))
            zeta = cholesky_solve(g, np.array([1.0, 0.0]))
            expected = np.array([x2 / (x1 * gap), -1.0 / gap])
            np.testing.assert_allclose(zeta, expected, rtol=1e-10)
