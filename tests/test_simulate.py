"""Truncated-basis path synthesis: exact moments, determinism, estimators."""

import numpy as np
import pytest

from pdsampling import (
    CapacityError,
    PathEnsemble,
    ValidationError,
    empirical_covariance,
    eval_kernel,
    haar_antiderivative_matrix,
    simulate_bridge,
    simulate_brownian,
    truncated_covariance,
    truncated_variance,
)
from pdsampling import KernelSpec
from pdsampling.simulate import (
    MAX_BASIS_ENTRIES,
    MAX_PATH_ENTRIES,
    MAX_PATHS,
)
from pdsampling import simulate

GRID_65 = np.linspace(0.0, 1.0, 65)


class TestBasis:
    def test_matches_column_loop(self):
        # The basis is built one level at a time; the same arithmetic, one
        # column at a time, is the reference and must agree bit for bit.
        def column_loop(g, depth):
            cols = [g.copy()]
            for j in range(depth + 1):
                scale = 2.0 ** (j / 2.0)
                width = 2.0**-j
                for k in range(2**j):
                    a = k * width
                    m = a + width / 2.0
                    up = np.clip(g, a, m) - a
                    down = np.clip(g, m, a + width) - m
                    cols.append(scale * (up - down))
            return np.column_stack(cols)

        rng = np.random.default_rng(3)
        grids = [GRID_65, np.sort(rng.uniform(0.0, 1.0, 40)), np.array([1.0])]
        for g in grids:
            for depth in (0, 1, 4, 8):
                got = haar_antiderivative_matrix(g, depth)
                assert got.flags.c_contiguous
                assert got.tobytes() == column_loop(g, depth).tobytes()

    def test_antiderivatives_start_at_zero(self):
        phi = haar_antiderivative_matrix(GRID_65, 4)
        np.testing.assert_array_equal(phi[0], np.zeros(phi.shape[1]))

    def test_first_column_is_identity_ramp(self):
        phi = haar_antiderivative_matrix(GRID_65, 2)
        np.testing.assert_array_equal(phi[:, 0], GRID_65)

    def test_only_the_ramp_is_nonzero_at_one(self):
        # The bridge basis is the Brownian one without its ramp column
        # because of this identity.
        for depth in range(21):
            row = haar_antiderivative_matrix([1.0], depth)[0]
            e0 = np.zeros(2 ** (depth + 1))
            e0[0] = 1.0
            assert row.tobytes() == e0.tobytes()

    def test_each_entry_point_builds_one_basis(self, monkeypatch):
        builds = []
        build = simulate.haar_antiderivative_matrix

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(simulate, "haar_antiderivative_matrix", counted)
        calls = (
            lambda: truncated_covariance(GRID_65, 4),
            lambda: truncated_covariance(GRID_65, 4, kind="bridge"),
            lambda: simulate_brownian(GRID_65, 3, 4, seed=1),
            lambda: simulate_bridge(GRID_65, 3, 4, seed=1),
        )
        for call in calls:
            builds.clear()
            call()
            assert len(builds) == 1


class TestTruncatedMoments:
    def test_variance_deficit_within_budget(self):
        for depth in (0, 3, 5, 8):
            var = truncated_variance(GRID_65, depth)
            deficit = np.max(np.abs(GRID_65 - var))
            assert deficit <= 2.0 ** -(depth + 1)

    def test_variance_monotone_in_depth(self):
        t = np.array([0.3])
        values = [float(truncated_variance(t, d)[0]) for d in range(0, 8)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_dyadic_grid_covariance_is_exact(self):
        """At depth 5, the truncated kernel agrees on a 1/64-step grid."""
        cov = truncated_covariance(GRID_65, 5)
        exact = np.minimum.outer(GRID_65, GRID_65)
        assert np.max(np.abs(cov - exact)) <= 1e-15

    def test_bridge_covariance_matches_kernel(self):
        cov = truncated_covariance(GRID_65, 5, kind="bridge")
        spec = KernelSpec.bridge()
        for s, t in ((0.25, 0.5), (0.125, 0.875), (0.5, 0.5)):
            i, j = int(s * 64), int(t * 64)
            assert abs(cov[i, j] - eval_kernel(spec, s, t)) <= 1e-14

    def test_bridge_covariance_is_the_centred_rows_gram(self):
        # The centred-rows formula is the oracle: rows of the Brownian basis
        # minus t times the row at t = 1.
        rng = np.random.default_rng(89)
        grids = [GRID_65, np.sort(rng.uniform(0.0, 1.0, 30)), np.linspace(0.0, 0.75, 13)]
        for g in grids:
            for depth in (0, 1, 4, 10):
                phi = haar_antiderivative_matrix(g, depth)
                phi_one = haar_antiderivative_matrix([1.0], depth)[0]
                centred = phi - np.outer(g, phi_one)
                got = truncated_covariance(g, depth, kind="bridge")
                assert got.tobytes() == (centred @ centred.T).tobytes()

    def test_symmetric_psd(self):
        rng = np.random.default_rng(83)
        grid = np.sort(rng.uniform(0.0, 1.0, 12))
        grid[0], grid[-1] = 0.0, 1.0
        for kind in ("brownian", "bridge"):
            cov = truncated_covariance(grid, 6, kind)
            np.testing.assert_array_equal(cov, cov.T)
            eigs = np.linalg.eigvalsh(cov)
            assert eigs[0] >= -1e-12


class TestBrownianPaths:
    def test_starts_at_zero_exactly(self):
        e = simulate_brownian(GRID_65, 50, 6, seed=1)
        assert np.all(e.paths[:, 0] == 0.0)

    def test_variance_at_half(self):
        e = simulate_brownian(GRID_65, 20000, 10, seed=7)
        col = e.paths[:, 32]
        var = float(np.var(col, ddof=1))
        se = float(np.std(col**2, ddof=1) / np.sqrt(len(col)))
        assert abs(var - 0.5) <= 5 * se

    def test_seed_determinism(self):
        a = simulate_brownian(GRID_65, 40, 6, seed=11)
        b = simulate_brownian(GRID_65, 40, 6, seed=11)
        np.testing.assert_array_equal(a.paths, b.paths)
        c = simulate_brownian(GRID_65, 40, 6, seed=12)
        assert not np.array_equal(a.paths, c.paths)

    def test_path_prefix_independent_of_count(self):
        small = simulate_brownian(GRID_65, 10, 6, seed=3)
        large = simulate_brownian(GRID_65, 200, 6, seed=3)
        np.testing.assert_array_equal(large.paths[:10], small.paths)

    def test_metadata_recorded(self):
        e = simulate_brownian(GRID_65, 5, 4, seed=9)
        assert e.seed == 9
        assert e.basis_depth == 4
        assert e.kernel_kind == "brownian"
        assert e.n_paths == 5

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            simulate_brownian(GRID_65, 0, 6, seed=1)
        with pytest.raises(ValidationError):
            simulate_brownian(GRID_65, 5, -1, seed=1)
        with pytest.raises(ValidationError):
            simulate_brownian(GRID_65, 5, 6, seed=-1)
        with pytest.raises(ValidationError):
            simulate_brownian([0.0, 0.5, 0.5], 5, 6, seed=1)
        with pytest.raises(ValidationError):
            simulate_brownian([0.0, 0.5, 1.5], 5, 6, seed=1)


class TestBridgePaths:
    def test_endpoints_exactly_zero(self):
        e = simulate_bridge(GRID_65, 100, 6, seed=5)
        assert np.all(e.paths[:, 0] == 0.0)
        assert np.all(e.paths[:, -1] == 0.0)

    def test_pinning_without_terminal_grid_point(self):
        grid = np.linspace(0.0, 0.75, 13)
        e = simulate_bridge(grid, 20, 5, seed=5)
        assert e.paths.shape == (20, 13)

    def test_covariance_at_quarter_half(self):
        e = simulate_bridge(GRID_65, 20000, 10, seed=13)
        est, se = empirical_covariance(e, 16, 32)
        assert abs(est - 0.125) <= 5 * se

    def test_is_brownian_minus_ramp_of_same_draws(self):
        rng = np.random.default_rng(97)
        random_grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 63)), [1.0]))
        for g in (GRID_65, random_grid):
            b = simulate_brownian(g, 20000, 10, seed=41)
            e = simulate_bridge(g, 20000, 10, seed=41)
            want = b.paths - np.outer(b.paths[:, -1], g)
            assert np.max(np.abs(e.paths - want)) <= 1e-12
            assert np.all(e.paths[:, 0] == 0.0)
            assert np.all(e.paths[:, -1] == 0.0)

    def test_seed_determinism(self):
        a = simulate_bridge(GRID_65, 30, 6, seed=17)
        b = simulate_bridge(GRID_65, 30, 6, seed=17)
        np.testing.assert_array_equal(a.paths, b.paths)


class TestEmpiricalCovariance:
    def test_pinned_column_is_degenerate(self):
        e = simulate_brownian(GRID_65, 100, 6, seed=19)
        est, se = empirical_covariance(e, 0, 0)
        assert est == 0.0 and se == 0.0

    def test_symmetry_exact(self):
        e = simulate_brownian(GRID_65, 500, 8, seed=23)
        a = empirical_covariance(e, 16, 48)
        b = empirical_covariance(e, 48, 16)
        assert a == b

    def test_tracks_exact_truncated_covariance(self):
        e = simulate_brownian(GRID_65, 20000, 10, seed=29)
        cov = truncated_covariance(GRID_65, 10)
        rng = np.random.default_rng(31)
        for _ in range(10):
            i, j = (int(v) for v in rng.integers(0, 65, 2))
            est, se = empirical_covariance(e, i, j)
            if se == 0.0:
                assert est == cov[i, j] == 0.0
                continue
            assert abs(est - cov[i, j]) <= 5 * se

    def test_needs_two_paths(self):
        e = simulate_brownian(GRID_65, 1, 4, seed=1)
        with pytest.raises(ValidationError):
            empirical_covariance(e, 0, 1)

    def test_index_range_checked(self):
        e = simulate_brownian(GRID_65, 5, 4, seed=1)
        with pytest.raises(ValidationError):
            empirical_covariance(e, 0, 65)


class TestEnsembleContainer:
    def test_paths_are_read_only(self):
        e = simulate_brownian(GRID_65, 3, 4, seed=1)
        with pytest.raises(ValueError):
            e.paths[0, 0] = 1.0


class TestCapacity:
    """Each ceiling fires before anything of its size is allocated.

    The allocating calls are replaced by ones that fail the test, so an
    oversize input is never run even if a check is missing.
    """

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past a capacity check")

        monkeypatch.setattr(np, "clip", refuse)
        monkeypatch.setattr(np, "column_stack", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)

    def test_basis_depth(self, no_allocation):
        with pytest.raises(CapacityError):
            haar_antiderivative_matrix([0.5], 24)
        with pytest.raises(CapacityError):
            haar_antiderivative_matrix(GRID_65, 10**9)
        with pytest.raises(CapacityError):
            simulate_brownian(GRID_65, 5, 24, seed=1)
        with pytest.raises(CapacityError):
            truncated_covariance(GRID_65, 24)

    def test_basis_entries_at_the_ceiling_pass(self, no_allocation):
        # 1 point x 2^24 columns is exactly the ceiling: the check passes
        # and the build starts, which the fixture stops.
        assert MAX_BASIS_ENTRIES == 2**24
        with pytest.raises(AssertionError, match="allocated"):
            haar_antiderivative_matrix([0.5], 23)
        with pytest.raises(CapacityError):
            haar_antiderivative_matrix([0.25, 0.5], 23)

    def test_path_count(self, no_allocation):
        with pytest.raises(CapacityError):
            simulate_brownian([0.5], MAX_PATHS + 1, 2, seed=1)
        with pytest.raises(CapacityError):
            simulate_bridge([0.5], MAX_PATHS + 1, 2, seed=1)

    def test_path_entries(self, no_allocation):
        n_paths = MAX_PATH_ENTRIES // 65 + 1
        assert n_paths <= MAX_PATHS
        with pytest.raises(CapacityError):
            simulate_brownian(GRID_65, n_paths, 2, seed=1)
        with pytest.raises(CapacityError):
            simulate_bridge(GRID_65, n_paths, 2, seed=1)
