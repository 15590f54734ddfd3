"""Kernel evaluation, domain checking, and sample-set validation."""

import math
import re

import numpy as np
import pytest

from pdsampling import (
    DomainError,
    KernelSpec,
    PiecewiseLinearFunction,
    SampleSet,
    TabulatedTable,
    ValidationError,
    binom,
    check_domain,
    eval_kernel,
    kernel_matrix,
    parse_kernel,
    sinc_pi,
    truncated_variance,
    validate_sample_set,
)
from pdsampling.errors import check_increasing


class TestEvalKernel:
    def test_brownian_is_min(self):
        assert eval_kernel(KernelSpec.brownian(), 2.0, 3.0) == 2.0

    def test_bridge_value(self):
        assert eval_kernel(KernelSpec.bridge(), 0.25, 0.5) == 0.125

    def test_sinc_half(self):
        v = eval_kernel(KernelSpec.sinc(), 0.5, 0.0)
        assert abs(v - 2.0 / math.pi) < 1e-15

    def test_binomial_pair(self):
        v = eval_kernel(KernelSpec.binomial(), 2, 3)
        assert v == 10
        assert isinstance(v, int)

    def test_symmetry_exact(self):
        """K(s,t) and K(t,s) must be the same float, not merely close."""
        rng = np.random.default_rng(7)
        cases = [
            (KernelSpec.sinc(), rng.uniform(-20, 20, 50), rng.uniform(-20, 20, 50)),
            (KernelSpec.brownian(), rng.uniform(0, 10, 50), rng.uniform(0, 10, 50)),
            (
                KernelSpec.bridge(),
                rng.uniform(0.01, 0.99, 50),
                rng.uniform(0.01, 0.99, 50),
            ),
        ]
        for spec, ss, ts in cases:
            for s, t in zip(ss, ts):
                assert eval_kernel(spec, s, t) == eval_kernel(spec, t, s)
        for s in rng.integers(0, 30, 50):
            for t in rng.integers(0, 30, 5):
                spec = KernelSpec.binomial()
                assert eval_kernel(spec, int(s), int(t)) == eval_kernel(spec, int(t), int(s))

    def test_diagonal_values(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(0, 10, 25):
            assert eval_kernel(KernelSpec.brownian(), t, t) == float(t)
        for t in rng.uniform(-30, 30, 25):
            assert eval_kernel(KernelSpec.sinc(), t, t) == 1.0

    def test_bridge_boundary_decay(self):
        spec = KernelSpec.bridge()
        assert abs(eval_kernel(spec, 1e-9, 0.5)) < 1e-8
        assert abs(eval_kernel(spec, 1.0 - 1e-9, 0.5)) < 1e-8

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec.brownian(), -1.0, 2.0)
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec.bridge(), 0.0, 0.5)
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec.bridge(), 0.5, 1.0)
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec.binomial(), 2.5, 3)
        with pytest.raises(DomainError):
            eval_kernel(KernelSpec.binomial(), -1, 3)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc_pi(0.0) == 1.0

    def test_guard_matches_series(self):
        # inside the guard the quadratic Taylor truncation is used
        x = 5e-9
        assert sinc_pi(x) == 1.0 - (math.pi * x) ** 2 / 6.0

    def test_guard_boundary_continuity(self):
        lo = sinc_pi(0.99e-8)
        hi = sinc_pi(1.01e-8)
        assert abs(lo - hi) < 1e-14

    def test_integer_zeros_exact(self):
        for n in (1, -1, 2, 7, -100, 1999):
            assert sinc_pi(float(n)) == 0.0

    def test_generic_value(self):
        x = 0.3
        assert abs(sinc_pi(x) - math.sin(math.pi * x) / (math.pi * x)) < 1e-16


class TestBinom:
    def test_small_entry(self):
        assert binom(5, 2) == 10

    def test_upper_index_larger_gives_zero(self):
        assert binom(3, 5) == 0

    def test_central_value(self):
        assert binom(30, 15) == 155117520

    def test_pascal_recurrence(self):
        for x in range(2, 40):
            for n in range(1, x):
                assert binom(x, n) == binom(x - 1, n - 1) + binom(x - 1, n)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(DomainError):
            binom(-1, 2)
        with pytest.raises(DomainError):
            binom(2.5, 1)


class TestSampleSet:
    def test_basic_construction(self):
        s = SampleSet.of([1.0, 2.0, 3.5])
        assert len(s) == 3
        assert s.points == (1.0, 2.0, 3.5)
        assert s.prefix(2).points == (1.0, 2.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            SampleSet.of([1.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            SampleSet.of([2.0, 1.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            SampleSet.of([])
        with pytest.raises(ValidationError):
            SampleSet.of([0.0, math.inf])
        with pytest.raises(ValidationError):
            SampleSet.of([math.nan])

    def test_ordering_message_names_first_pair(self):
        with pytest.raises(ValidationError) as info:
            SampleSet.of([1.0, 3.0, 2.0, 0.0])
        assert str(info.value) == (
            "sample points must be strictly increasing; points[1]=3.0 >= points[2]=2.0"
        )

    def test_brownian_requires_positive_points(self):
        validate_sample_set(KernelSpec.brownian(), SampleSet.of([0.5, 1.0]))
        with pytest.raises(ValidationError):
            validate_sample_set(KernelSpec.brownian(), SampleSet.of([0.0, 1.0]))

    def test_bridge_requires_open_interval(self):
        validate_sample_set(KernelSpec.bridge(), SampleSet.of([0.1, 0.9]))
        for bad in ([0.0, 0.5], [0.5, 1.0]):
            with pytest.raises(ValidationError):
                validate_sample_set(KernelSpec.bridge(), SampleSet.of(bad))

    def test_binomial_requires_nonnegative_integers(self):
        validate_sample_set(KernelSpec.binomial(), SampleSet.of([0.0, 1.0, 5.0]))
        with pytest.raises(ValidationError):
            validate_sample_set(KernelSpec.binomial(), SampleSet.of([0.0, 1.5]))


# Every validated point sequence goes through errors.check_increasing.
SEQUENCES = {
    "sample-set": SampleSet.of,
    "tabulated": lambda pts: TabulatedTable.from_rows(pts, np.eye(len(pts))),
    "knots": lambda pts: PiecewiseLinearFunction(tuple(pts), (0.0,) * len(pts)),
    "time-grid": lambda pts: truncated_variance(pts, 1),
}


class TestCheckIncreasing:
    def test_returns_float64_array(self):
        got = check_increasing("points", (0, 0.5, 2))
        assert got.dtype == np.float64
        assert got.tolist() == [0.0, 0.5, 2.0]

    @pytest.mark.parametrize("make", SEQUENCES.values(), ids=SEQUENCES.keys())
    @pytest.mark.parametrize(
        "points, words",
        [([], "non-empty"), ([0.25, math.nan], "finite"), ([0.5, 0.25], "points[0]=0.5 >= points[1]=0.25")],
        ids=["empty", "non-finite", "unordered"],
    )
    def test_every_sequence_rejects(self, make, points, words):
        with pytest.raises(ValidationError, match=re.escape(words)):
            make(points)


class TestCheckDomain:
    def test_returns_checked_float64_array(self):
        got = check_domain(KernelSpec.binomial(), [0, 2, 5])
        assert got.dtype == np.float64
        assert got.tolist() == [0.0, 2.0, 5.0]
        one = check_domain(KernelSpec.bridge(), 0.25)
        assert one.dtype == np.float64 and one.shape == ()
        assert float(one) == 0.25


class TestTabulated:
    def test_lookup_and_domain(self):
        table = TabulatedTable(
            points=(0.0, 1.0, 2.5), values=((2.0, 0.5, 0.1), (0.5, 3.0, 0.2), (0.1, 0.2, 4.0))
        )
        spec = KernelSpec.tabulated(table)
        assert eval_kernel(spec, 0.0, 2.5) == 0.1
        assert eval_kernel(spec, 1.0, 1.0) == 3.0
        with pytest.raises(DomainError):
            eval_kernel(spec, 0.7, 1.0)
        with pytest.raises(DomainError):
            check_domain(spec, 9.0)

    def test_searchsorted_lookup_matches_a_point_to_index_dict(self):
        """Members, signed zero and non-members, against the dict reference."""
        pts = (-2.0, -0.5, 0.0, 1.0, 2.5, 7.0)
        rng = np.random.default_rng(7)
        body = rng.standard_normal((6, 6))
        spec = KernelSpec.tabulated(TabulatedTable.from_rows(pts, body + body.T))
        index = {p: i for i, p in enumerate(pts)}
        xs = np.array([7.0, -0.0, -2.0, 0.0, 2.5, -0.5, 1.0, 7.0])
        want = [[(body + body.T)[index[a], index[b]] for b in xs.tolist()] for a in xs.tolist()]
        assert kernel_matrix(spec, xs, xs).tolist() == want
        assert eval_kernel(spec, -0.0, 2.5) == eval_kernel(spec, 0.0, 2.5)
        for x in (-3.0, -1.0, 0.5, 2.0, 8.0, 1e300):
            with pytest.raises(DomainError, match=rf"^point {re.escape(repr(x))} is not in the tabulated point set$"):
                check_domain(spec, [0.0, x, 9.0])
        with pytest.raises(DomainError, match="^kernel argument must be finite, got nan$"):
            check_domain(spec, [1.0, math.nan, 0.5])
        with pytest.raises(DomainError, match="^kernel argument must be finite, got inf$"):
            check_domain(spec, math.inf)

    def test_rejects_asymmetric_body(self):
        with pytest.raises(ValidationError):
            TabulatedTable(points=(0.0, 1.0), values=((1.0, 0.3), (0.2, 1.0)))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("0,1,2\n2,0.5,0.1\n0.5,3,0.2\n0.1,0.2,4\n")
        table = TabulatedTable.from_csv(str(path))
        assert table.points == (0.0, 1.0, 2.0)
        assert eval_kernel(KernelSpec.tabulated(table), 2.0, 0.0) == 0.1

    def test_csv_errors_are_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            TabulatedTable.from_csv(str(tmp_path / "missing.csv"))
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n1,2\n")
        with pytest.raises(ValidationError):
            TabulatedTable.from_csv(str(bad))


class TestParseKernel:
    def test_named_kernels(self):
        for name in ("sinc", "brownian", "bridge", "binomial"):
            spec = parse_kernel(name)
            assert spec.kind == name
            assert spec.to_text() == name

    def test_tabulated_form(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,1\n1,0.2\n0.2,1\n")
        spec = parse_kernel(f"tabulated:{path}")
        assert spec.kind == "tabulated"
        assert spec.to_text() == f"tabulated:{path}"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            parse_kernel("gaussian")
