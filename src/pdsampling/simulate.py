"""Karhunen-Loeve path simulation for Brownian motion and the bridge.

A Brownian path on [0,1] is synthesized as B_t = sum_k Phi_k(t) Z_k where the
Phi_k are antiderivatives of the Haar system (the constant plus levels
0..depth, 2^(depth+1) functions in all) and the Z_k are independent standard
normals.  The antiderivatives are exact piecewise-linear ramps, so both the
paths and the truncated covariance sum_k Phi_k(s) Phi_k(t) are computed in
closed form; truncation costs at most 2^-(depth+2) of variance uniformly in
t, inside the 2^-(depth+1) budget documented here.

The bridge is the same Schauder series without its ramp column t Z_0.  Every
other antiderivative vanishes at t = 1, so this is B_t - t B_1 of the same
draws: it has the bridge covariance min(s,t) - st and needs no unbounded
time domain.

Determinism: every path draws from its own counter-based substream keyed by
(seed, path index), and each path is a fixed-order matrix-vector product, so
ensembles are bit-identical across runs and across any parallel split of the
path loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError, check_increasing, check_int

# Capacity ceilings, checked before anything of their size is allocated.  The
# largest ensemble of the acceptance checks, 20,000 paths on a 65-point grid
# at depth 10, holds 133,120 basis entries and 1.3e6 path entries.
# Entries of the dense basis matrix, len(grid) * 2^(depth+1): 128 MiB of doubles.
MAX_BASIS_ENTRIES = 2**24
# Paths per ensemble; each path holds its own seed substream (about 380 bytes).
MAX_PATHS = 2**20
# Entries of the path matrix, n_paths * len(grid): 128 MiB of doubles.
MAX_PATH_ENTRIES = 2**24


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths sampled on a common time grid.

    paths has one row per path, one column per grid point, and is frozen.
    Reproducible bit-for-bit from (seed, basis_depth, time_grid, row count).
    """

    time_grid: tuple[float, ...]
    paths: np.ndarray
    seed: int
    basis_depth: int
    kernel_kind: str

    def __post_init__(self):
        self.paths.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _check_grid(grid) -> np.ndarray:
    g = check_increasing("time grid", grid)
    if g[0] < 0.0 or g[-1] > 1.0:
        raise ValidationError("time grid must lie inside [0, 1]")
    return g


def haar_antiderivative_matrix(grid, basis_depth: int) -> np.ndarray:
    """Matrix Phi with Phi[i, k] = integral from 0 to grid[i] of psi_k.

    Column 0 integrates the constant function (a straight ramp t).  The
    wavelet at level j, offset k is +2^(j/2) on the left half of its support
    and -2^(j/2) on the right half, so its antiderivative is the exact
    triangular ramp below, zero outside the support; each level is one
    block of 2^j columns.
    """
    g = _check_grid(grid)
    basis_depth = check_int("basis_depth", basis_depth, 0)
    # The shift keeps the test cheap for any depth: the bound holds exactly
    # when len(grid) <= floor(MAX_BASIS_ENTRIES / 2^(depth+1)).
    if g.size > MAX_BASIS_ENTRIES >> (basis_depth + 1):
        raise CapacityError(
            f"basis of depth {basis_depth} on {g.size} grid points exceeds the "
            f"documented capacity of {MAX_BASIS_ENTRIES} entries"
        )
    t = g[:, None]
    blocks = [t]
    for j in range(basis_depth + 1):
        width = 2.0**-j
        a = np.arange(2**j) * width
        m = a + width / 2.0
        up = np.clip(t, a, m)
        up -= a
        down = np.clip(t, m, a + width)
        down -= m
        up -= down
        up *= 2.0 ** (j / 2.0)
        blocks.append(up)
    return np.column_stack(blocks)


def truncated_variance(grid, basis_depth: int) -> np.ndarray:
    """Exact variance of the depth-truncated Brownian synthesis at each grid point."""
    phi = haar_antiderivative_matrix(grid, basis_depth)
    return np.sum(phi * phi, axis=1)


def _basis(grid, basis_depth: int, kind: str) -> np.ndarray:
    """The Brownian basis on the grid; the bridge's has its ramp column zeroed."""
    if kind not in ("brownian", "bridge"):
        raise ValidationError(f"unknown simulation kernel {kind!r}")
    phi = haar_antiderivative_matrix(grid, basis_depth)
    if kind == "bridge":
        phi[:, 0] = 0.0
    return phi


def truncated_covariance(grid, basis_depth: int, kind: str = "brownian") -> np.ndarray:
    """Exact covariance matrix of the truncated synthesis on the grid.

    Symmetric PSD by construction: a Gram of basis rows, the bridge's
    without the ramp column.
    """
    phi = _basis(grid, basis_depth, kind)
    return phi @ phi.T


def _simulate(grid, n_paths: int, basis_depth: int, seed: int, kind: str) -> PathEnsemble:
    g = _check_grid(grid)
    n_paths = check_int("n_paths", n_paths, 1)
    seed = check_int("seed", seed, 0)
    if n_paths > MAX_PATHS or n_paths * g.size > MAX_PATH_ENTRIES:
        raise CapacityError(
            f"{n_paths} paths on {g.size} grid points exceed the documented capacity "
            f"of {MAX_PATHS} paths and {MAX_PATH_ENTRIES} path entries"
        )
    phi = _basis(g, basis_depth, kind)
    children = np.random.SeedSequence(seed).spawn(n_paths)
    paths = np.empty((n_paths, g.size), dtype=float)
    for i, child in enumerate(children):
        z = np.random.Generator(np.random.Philox(child)).standard_normal(phi.shape[1])
        paths[i] = phi @ z
    return PathEnsemble(
        time_grid=tuple(g.tolist()),
        paths=paths,
        seed=seed,
        basis_depth=int(basis_depth),  # integral: haar_antiderivative_matrix checked it
        kernel_kind=kind,
    )


def simulate_brownian(grid, n_paths: int, basis_depth: int, seed: int) -> PathEnsemble:
    """Ensemble of truncated-basis Brownian paths on the grid.

    Path i uses the i-th spawned substream of the seed, so any subset of
    paths can be regenerated independently and parallel generation agrees
    with serial bit-for-bit.
    """
    return _simulate(grid, n_paths, basis_depth, seed, "brownian")


def simulate_bridge(grid, n_paths: int, basis_depth: int, seed: int) -> PathEnsemble:
    """Ensemble of bridge paths: the Schauder series without its ramp t Z_0.

    Path i is B_t - t B_1 of the same draws the Brownian simulation makes
    for this seed, whether or not 1 is on the grid.  Grid values 0 and 1
    come out exactly zero.
    """
    return _simulate(grid, n_paths, basis_depth, seed, "bridge")


def empirical_covariance(e: PathEnsemble, s_index: int, t_index: int) -> tuple[float, float]:
    """Unbiased sample covariance of two grid columns and its standard error.

    The standard error is that of the mean of centered cross-products, the
    usual large-sample estimate for a covariance entry.
    """
    n = e.n_paths
    if n < 2:
        raise ValidationError("covariance needs at least two paths")
    cols = e.paths.shape[1]
    x = e.paths[:, check_int("s_index", s_index, -cols, cols)]
    y = e.paths[:, check_int("t_index", t_index, -cols, cols)]
    dx = x - x.mean()
    dy = y - y.mean()
    products = dx * dy
    estimate = float(np.sum(products) / (n - 1))
    std_error = float(np.std(products, ddof=1) / np.sqrt(n))
    return estimate, std_error
