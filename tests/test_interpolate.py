"""Linear splines, sawtooth witnesses, ridge fits, obstruction probes."""

import math

import numpy as np
import pytest

from pdsampling import (
    KernelSpec,
    PiecewiseLinearFunction,
    SampleSet,
    ValidationError,
    build_gram,
    cholesky_solve,
    cm_norm_sq,
    obstruction_probe,
    ridge_interpolant,
    sawtooth_energy_closed,
    sawtooth_witness,
    spline_interpolant,
    tent_basis,
)

BM = KernelSpec.brownian()


class TestPiecewiseLinear:
    def test_interpolates_knots(self):
        f = PiecewiseLinearFunction(knots=(1.0, 2.0, 4.0), values=(0.0, 1.0, 0.0))
        assert f(1.0) == 0.0
        assert f(2.0) == 1.0
        assert f(3.0) == 0.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearFunction(knots=(0.0, 1.0), values=(0.0,))

    def test_non_increasing_knots(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearFunction(knots=(1.0, 1.0), values=(0.0, 0.0))


class TestCmNormSq:
    def test_unit_ramp(self):
        f = PiecewiseLinearFunction(knots=(0.0, 1.0), values=(0.0, 1.0))
        assert cm_norm_sq(f) == 1.0

    def test_tent_energy(self):
        f = PiecewiseLinearFunction(knots=(1.0, 2.0, 4.0), values=(0.0, 1.0, 0.0))
        assert cm_norm_sq(f) == 1.5

    def test_constant_has_zero_energy(self):
        f = PiecewiseLinearFunction(knots=(0.0, 5.0), values=(3.0, 3.0))
        assert cm_norm_sq(f) == 0.0


class TestSpline:
    def test_two_point_ramp(self):
        sp = spline_interpolant(SampleSet.of([1.0, 2.0]), [0.0, 1.0])
        assert sp.norm_sq == 1.0
        assert sp.admissible

    def test_norm_identity_two_paths(self):
        """Compensated sum and vectorized energy agree to 1e-12."""
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(2, 101))
            pts = np.sort(rng.uniform(0.01, 50.0, n))
            if np.any(np.diff(pts) < 1e-6):
                continue
            y = rng.standard_normal(n)
            sp = spline_interpolant(SampleSet.of(pts.tolist()), y.tolist())
            direct = cm_norm_sq(sp.function)
            assert abs(sp.norm_sq - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_budget_controls_admissibility(self):
        s = SampleSet.of([1.0, 2.0])
        assert spline_interpolant(s, [0.0, 1.0], finiteness_budget=1.0).admissible
        assert not spline_interpolant(s, [0.0, 1.0], finiteness_budget=0.5).admissible

    def test_value_count_checked(self):
        with pytest.raises(ValidationError):
            spline_interpolant(SampleSet.of([1.0, 2.0]), [0.0])


class TestTentBasis:
    def test_unit_interval_scaled(self):
        f = tent_basis(0.0, 2.0)
        assert f(1.0) == 1.0
        assert cm_norm_sq(f) == 2.0

    def test_vanishes_at_ends(self):
        f = tent_basis(1.0, 3.0)
        assert f(1.0) == 0.0
        assert f(3.0) == 0.0

    def test_degenerate_interval(self):
        with pytest.raises(ValidationError):
            tent_basis(2.0, 2.0)


class TestSawtoothWitness:
    def test_vanishes_at_every_sample_point(self):
        s = SampleSet.of([float(k) for k in range(1, 21)])
        w = sawtooth_witness(s)
        for p in s.points:
            assert w(p) == 0.0

    def test_default_energy_is_basel_partial_sum(self):
        s = SampleSet.of([float(k) for k in range(1, 201)])
        w = sawtooth_witness(s)
        closed = sawtooth_energy_closed(s)
        expected = math.fsum(1.0 / k**2 for k in range(1, 200))
        assert abs(closed - expected) <= 1e-15
        assert abs(cm_norm_sq(w) - closed) <= 1e-12

    def test_unit_slope_tooth(self):
        s = SampleSet.of([1.0, 3.0])
        w = sawtooth_witness(s, slopes=[1.0])
        assert w(2.0) == 1.0
        assert cm_norm_sq(w) == 2.0
        assert sawtooth_energy_closed(s, slopes=[1.0]) == 2.0

    def test_energy_nonzero(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        assert cm_norm_sq(sawtooth_witness(s)) > 0.0

    def test_single_point_degenerates_to_zero(self):
        w = sawtooth_witness(SampleSet.of([2.0]))
        assert w(2.0) == 0.0
        assert cm_norm_sq(w) == 0.0

    def test_slope_count_checked(self):
        with pytest.raises(ValidationError):
            sawtooth_witness(SampleSet.of([1.0, 2.0, 3.0]), slopes=[1.0])


class TestRidge:
    def test_alpha_zero_interpolates(self):
        f = ridge_interpolant(BM, SampleSet.of([1.0, 2.0]), [1.0, 1.0], alpha=0.0)
        np.testing.assert_allclose(f.coefficients, [1.0, 0.0], atol=1e-14)

    def test_large_alpha_shrinks_to_zero(self):
        f = ridge_interpolant(BM, SampleSet.of([1.0, 2.0]), [1.0, 1.0], alpha=1e8)
        assert np.all(np.abs(f.coefficients) < 1e-6)

    def test_residual_decreases_with_alpha(self):
        s = SampleSet.of([1.0, 2.0])
        y = np.array([1.0, 1.0])
        g = build_gram(BM, s)
        residuals = []
        for alpha in (1e-2, 1e-4, 1e-6):
            c = np.asarray(ridge_interpolant(BM, s, y, alpha).coefficients)
            residuals.append(float(np.max(np.abs(g @ c - y))))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            ridge_interpolant(BM, SampleSet.of([1.0]), [1.0], alpha=-1.0)

    def test_weights_validated(self):
        s = SampleSet.of([1.0, 2.0])
        with pytest.raises(ValidationError):
            ridge_interpolant(BM, s, [1.0, 1.0], alpha=0.1, weights=[1.0])
        with pytest.raises(ValidationError):
            ridge_interpolant(BM, s, [1.0, 1.0], alpha=0.1, weights=[1.0, 0.0])


    @pytest.mark.parametrize("kind", ["brownian", "bridge", "sinc"])
    def test_alpha_zero_is_the_plain_gram_solve(self, kind):
        # Exact interpolation takes the ridge path with a zero diagonal
        # added; its coefficients are the plain Gram solve's, bit for bit.
        rng = np.random.default_rng(48)
        for _ in range(20):
            n = int(rng.integers(2, 49))
            if kind == "sinc":
                x = np.arange(n) + rng.uniform(-0.2, 0.2, n)
            else:
                x = (np.arange(1, n + 1) + rng.uniform(-0.3, 0.3, n)) / (n + 1)
            s = SampleSet.of(x)
            y = rng.standard_normal(n)
            spec = KernelSpec(kind)
            got = np.asarray(ridge_interpolant(spec, s, y, 0.0).coefficients)
            want = cholesky_solve(build_gram(spec, s), y)
            assert got.tobytes() == want.tobytes()


class TestObstructionProbe:
    def test_zero_target_attains_zero(self):
        res = obstruction_probe(BM, SampleSet.of([1.0, 2.0]), 0.5, 0.0, alpha=0.1)
        assert res.minimum_value == 0.0
        assert all(v == 0.0 for v in res.minimizer.coefficients)

    def test_midpoint_probe_is_partially_blocked(self):
        res = obstruction_probe(BM, SampleSet.of([1.0, 2.0]), 0.5, 1.0, alpha=0.1)
        assert 0.0 < res.minimum_value < 1.0
        assert 0.0 < res.value_at_t0 < 1.0

    def test_minimum_non_increasing_in_alpha(self):
        s = SampleSet.of([1.0, 2.0, 3.0])
        values = [
            obstruction_probe(BM, s, 1.5, 1.0, alpha=a).minimum_value
            for a in (1.0, 0.1, 0.01)
        ]
        assert values[0] >= values[1] >= values[2]

    def test_fields_recompute_objective(self):
        """Stored pieces reassemble into minimum_value within 1e-9 relative."""
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            pts = np.sort(rng.uniform(0.5, 6.0, n))
            if np.any(np.diff(pts) < 1e-2):
                continue
            s = SampleSet.of(pts.tolist())
            t0 = float(rng.uniform(6.5, 8.0))
            y0 = float(rng.standard_normal())
            alpha = 0.05
            res = obstruction_probe(BM, s, t0, y0, alpha=alpha)
            aug = SampleSet.of(sorted(s.points + (t0,)))
            g = build_gram(BM, aug)
            c = np.asarray(res.minimizer.coefficients)
            rebuilt = (
                math.fsum(w * r**2 for w, r in zip(res.weights, res.residuals_at_s))
                + (res.value_at_t0 - y0) ** 2
                + alpha * float(c @ g @ c)
            )
            assert abs(rebuilt - res.minimum_value) <= 1e-9 * max(
                1.0, abs(res.minimum_value)
            )

    def test_probe_point_must_be_new(self):
        with pytest.raises(ValidationError):
            obstruction_probe(BM, SampleSet.of([1.0, 2.0]), 2.0, 1.0, alpha=0.1)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            obstruction_probe(BM, SampleSet.of([1.0, 2.0]), 0.5, 1.0, alpha=0.0)
