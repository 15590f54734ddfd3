"""Gram construction, SPD solves, determinant oracles, Pascal algebra."""

import math

import numpy as np
import pytest

import pdsampling.gram
from pdsampling import (
    CapacityError,
    KernelSpec,
    SampleSet,
    SingularMatrixError,
    ValidationError,
    binomial_gram_inverse,
    binomial_gram_inverse_exact,
    build_gram,
    cholesky_solve,
    det_bridge_closed,
    det_brownian_closed,
    det_lu,
    eval_kernel,
    pascal_inverse,
    pascal_lower,
)
from pdsampling.gram import (
    BINOMIAL_GRAM_MAX_POINT,
    MAX_GRAM_ENTRIES,
    cholesky_factor,
)


def random_increasing(rng, n, lo, hi):
    pts = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(pts) < 1e-6):
        pts = np.sort(rng.uniform(lo, hi, size=n))
    return SampleSet.of(pts.tolist())


class TestBuildGram:
    def test_brownian_pattern(self):
        g = build_gram(KernelSpec.brownian(), SampleSet.of([1.0, 2.0, 3.0]))
        assert g.entries.tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_sinc_integers_identity(self):
        g = build_gram(KernelSpec.sinc(), SampleSet.of([0.0, 1.0]))
        assert g.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_binomial_entries_exact(self):
        g = build_gram(KernelSpec.binomial(), SampleSet.of([0.0, 1.0, 2.0]))
        assert g.entries.tolist() == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
        assert g.exact_entries == ((1, 1, 1), (1, 2, 3), (1, 3, 6))

    def test_entries_match_eval_bitwise(self):
        rng = np.random.default_rng(3)
        for spec, lo, hi in (
            (KernelSpec.brownian(), 0.1, 10.0),
            (KernelSpec.bridge(), 0.01, 0.99),
            (KernelSpec.sinc(), -5.0, 5.0),
        ):
            s = random_increasing(rng, 8, lo, hi)
            g = build_gram(spec, s)
            for i, p in enumerate(s.points):
                for j, q in enumerate(s.points):
                    assert g.entries[i, j] == eval_kernel(spec, p, q)

    def test_binomial_capacity_decided_before_any_entry(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("binomial entries computed past the double range")

        monkeypatch.setattr(pdsampling.gram, "kernel_values", refuse)
        with pytest.raises(CapacityError, match="beyond the double range"):
            build_gram(KernelSpec.binomial(), SampleSet.of(range(600)))

    def test_binomial_capacity_edge_matches_math_comb(self):
        # The largest entry of a binomial Gram is C(2x, x) at its last point x.
        x = BINOMIAL_GRAM_MAX_POINT
        assert math.isfinite(float(math.comb(2 * x, x)))
        with pytest.raises(OverflowError):
            float(math.comb(2 * x + 2, x + 1))
        g = build_gram(KernelSpec.binomial(), SampleSet.of([x - 1, x]))
        assert g.entries[1, 1] == float(math.comb(2 * x, x))
        with pytest.raises(CapacityError, match=rf"C\({2 * x + 2}, {x + 1}\)"):
            build_gram(KernelSpec.binomial(), SampleSet.of([0, x + 1]))

    def test_entry_ceiling_decided_before_any_entry(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Gram entries computed past the entry ceiling")

        assert MAX_GRAM_ENTRIES == 2**24
        monkeypatch.setattr(pdsampling.gram, "kernel_values", refuse)
        with pytest.raises(CapacityError, match="4097 points"):
            build_gram(KernelSpec.sinc(), SampleSet.of(range(4097)))

    def test_entries_frozen(self):
        g = build_gram(KernelSpec.brownian(), SampleSet.of([1.0, 2.0]))
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0

    def test_factorization_round_trip(self):
        """The factor must reproduce the matrix to 1e-12 relative."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_increasing(rng, 9, 0.1, 10.0)
            g = build_gram(KernelSpec.brownian(), s)
            low = cholesky_factor(g.entries)
            err = np.linalg.norm(low @ low.T - g.entries) / np.linalg.norm(g.entries)
            assert err <= 1e-12


class TestSolveSpd:
    def test_two_point_inverse_column(self):
        g = build_gram(KernelSpec.brownian(), SampleSet.of([1.0, 2.0]))
        v = cholesky_solve(g.entries, [1.0, 0.0])
        np.testing.assert_allclose(v, [2.0, -1.0], atol=1e-14)

    def test_identity_gram_echoes_rhs(self):
        g = build_gram(KernelSpec.sinc(), SampleSet.of([0.0, 1.0, 2.0]))
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            np.testing.assert_array_equal(cholesky_solve(g.entries, e), e)

    def test_near_duplicate_points_singular(self):
        g = build_gram(KernelSpec.brownian(), SampleSet.of([1.0, 1.0 + 1e-14]))
        with pytest.raises(SingularMatrixError) as info:
            cholesky_solve(g.entries, [1.0, 0.0])
        assert info.value.pivot_index == 1

    def test_rhs_length_checked(self):
        g = build_gram(KernelSpec.brownian(), SampleSet.of([1.0, 2.0]))
        with pytest.raises(ValidationError):
            cholesky_solve(g.entries, [1.0, 2.0, 3.0])

    def test_residual_small_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            s = random_increasing(rng, 10, 0.5, 20.0)
            g = build_gram(KernelSpec.brownian(), s)
            rhs = rng.standard_normal(10)
            v = cholesky_solve(g.entries, rhs)
            resid = np.max(np.abs(g.entries @ v - rhs))
            assert resid <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_pivot_index_reported(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularMatrixError) as info:
            cholesky_factor(a)
        assert info.value.pivot_index == 1


class TestCholeskyFactorInput:
    @pytest.fixture(autouse=True)
    def no_lapack(self, monkeypatch):
        """Every case must be rejected before any BLAS or LAPACK call."""

        def refuse(*args, **kwargs):
            raise AssertionError("BLAS called on rejected input")

        for name in ("dtrsm", "dsyrk", "dpotrf"):
            monkeypatch.setattr(pdsampling.gram, name, refuse)

    def test_not_square(self):
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            cholesky_factor(np.eye(2, 3))

    def test_not_two_dimensional(self):
        with pytest.raises(ValidationError, match=r"\(3,\)"):
            cholesky_factor(np.ones(3))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_not_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            cholesky_factor([[bad]])
        a = np.eye(40)
        a[35, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            cholesky_factor(a)


class TestDeterminants:
    def test_brownian_examples(self):
        assert det_brownian_closed(SampleSet.of([1.0, 2.0, 3.0])) == 1.0
        assert det_brownian_closed(SampleSet.of([0.5, 1.5, 3.5])) == 1.0
        assert det_brownian_closed(SampleSet.of([0.7])) == 0.7

    def test_bridge_examples(self):
        assert abs(det_bridge_closed(SampleSet.of([0.2, 0.5, 0.9])) - 0.0024) < 1e-18
        assert det_bridge_closed(SampleSet.of([0.5])) == 0.25
        assert abs(det_bridge_closed(SampleSet.of([0.1, 0.9])) - 0.008) < 1e-18

    def test_brownian_closed_vs_lu(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            s = random_increasing(rng, n, 0.05, 10.0)
            closed = det_brownian_closed(s)
            dense = det_lu(build_gram(KernelSpec.brownian(), s))
            assert abs(dense - closed) <= 1e-10 * abs(closed)

    def test_bridge_closed_vs_lu(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            s = random_increasing(rng, n, 0.01, 0.99)
            closed = det_bridge_closed(s)
            dense = det_lu(build_gram(KernelSpec.bridge(), s))
            assert abs(dense - closed) <= 1e-10 * abs(closed)

    def test_domain_enforced(self):
        with pytest.raises(ValidationError):
            det_brownian_closed(SampleSet.of([0.0, 1.0]))
        with pytest.raises(ValidationError):
            det_bridge_closed(SampleSet.of([0.5, 1.5]))


class TestPascal:
    def test_small_lower_matrix(self):
        m = pascal_lower(3)
        assert m.entries == (
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 2, 1, 0),
            (1, 3, 3, 1),
        )

    def test_order_zero(self):
        assert pascal_lower(0).entries == ((1,),)

    def test_single_entry(self):
        assert pascal_lower(5).entries[5][2] == 10

    def test_inverse_sign_pattern(self):
        inv = pascal_inverse(3)
        assert inv[3] == (-1, 3, -3, 1)
        assert pascal_inverse(1) == ((1, 0), (-1, 1))

    def test_product_is_exact_identity(self):
        for n in (0, 1, 6, 25, 60):
            low = pascal_lower(n).entries
            inv = pascal_inverse(n)
            m = n + 1
            for i in range(m):
                for j in range(m):
                    expected = 1 if i == j else 0
                    got = sum(low[i][k] * inv[k][j] for k in range(j, i + 1)) if j <= i else 0
                    assert got == expected

    def test_capacity_ceiling(self):
        with pytest.raises(CapacityError):
            pascal_lower(61)
        with pytest.raises(CapacityError):
            pascal_inverse(61)

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            pascal_lower(-1)
        with pytest.raises(ValidationError):
            pascal_lower(2.5)


class TestBinomialGramInverse:
    def test_diagonal_values(self):
        assert binomial_gram_inverse_exact(2)[0][0] == 3
        assert binomial_gram_inverse_exact(3)[1][1] == 14

    def test_gram_is_pascal_product(self):
        """The kernel Gram over {0..n} factors through the Pascal triangle."""
        for n in (0, 3, 10, 25):
            low = pascal_lower(n).entries
            g = build_gram(
                KernelSpec.binomial(), SampleSet.of([float(v) for v in range(n + 1)])
            )
            m = n + 1
            for i in range(m):
                for j in range(m):
                    prod = sum(low[i][k] * low[j][k] for k in range(min(i, j) + 1))
                    assert g.exact_entries[i][j] == prod

    def test_inverse_identity_float(self):
        g = build_gram(KernelSpec.binomial(), SampleSet.of([0.0, 1.0, 2.0, 3.0, 4.0]))
        product = binomial_gram_inverse(4) @ g.entries
        assert np.max(np.abs(product - np.eye(5))) <= 1e-9

    def test_inverse_identity_exact(self):
        for n in (1, 5, 15):
            inv = binomial_gram_inverse_exact(n)
            low = pascal_lower(n).entries
            m = n + 1
            gram = [
                [sum(low[i][k] * low[j][k] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
            for i in range(m):
                for j in range(m):
                    got = sum(inv[i][k] * gram[k][j] for k in range(m))
                    assert got == (1 if i == j else 0)
