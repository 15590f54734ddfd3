"""Gram matrices, SPD solves, closed-form determinants, and Pascal algebra.

Every closed form here doubles as a test oracle against an independent dense
code path:

  det_brownian_closed / det_bridge_closed   product formulas, checked against
                                            a partial-pivot LU determinant
  pascal_lower / pascal_inverse             exact integer Pascal triangles with
                                            an exact alternating-sign inverse
  binomial_gram_inverse                     inverse binomial Gram assembled
                                            from the exact Pascal inverse

Continuous kernels live in IEEE doubles; binomial Gram entries are exact
Python integers, converted to doubles only at the linear-algebra boundary.

One pipeline serves every solve: build_gram, then cholesky_factor (cached
per GramMatrix by cholesky()), then cholesky_solve, the package's only SPD
solve, or substitutions read directly off the factor by the probes.  det_lu
is None, and reports carry "det_lu": null, when the LU pivot product leaves
the double range, as it does for the binomial Gram over 0..100.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtpsv

from .errors import CapacityError, SingularMatrixError, ValidationError, check_int
from .kernels import KernelSpec, SampleSet, kernel_values, validate_sample_set

# Pivots at or below this are treated as a singular/indefinite factorization.
# An absolute floor (rather than one relative to the diagonal) is deliberate:
# binomial Grams have unit pivots under a diagonal of ~1e14 and must factor,
# while near-duplicate desk-scale points produce pivots ~1e-14 and must not.
# Data scaled so that legitimate pivots fall below 1e-12 is unsupported.
PIVOT_FLOOR = 1e-12

# Documented ceiling for the Pascal-matrix builders.  The integer arithmetic
# itself is arbitrary precision; the ceiling keeps every advertised product
# and inverse within the exactly-tested range.
PASCAL_CAPACITY = 60


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel Gram matrix K[i,j] = K(points[i], points[j]).

    `entries` is the float64 form used by all linear algebra and is frozen
    (non-writeable).  For the binomial kernel `exact_entries` additionally
    holds the same matrix as exact integers.  The Cholesky factor is cached
    on first use; recomputation is idempotent, so the lazy cache is safe
    under concurrent readers.
    """

    spec: KernelSpec
    sample_set: SampleSet
    entries: np.ndarray
    exact_entries: tuple[tuple[int, ...], ...] | None = field(default=None)

    def __post_init__(self):
        self.entries.flags.writeable = False
        object.__setattr__(self, "_chol", None)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def cholesky(self) -> np.ndarray:
        cached = object.__getattribute__(self, "_chol")
        if cached is None:
            cached = cholesky_factor(self.entries)
            object.__setattr__(self, "_chol", cached)
        return cached


def build_gram(spec: KernelSpec, s: SampleSet) -> GramMatrix:
    """Full symmetric Gram matrix of the kernel over the sample set.

    One block evaluation over the validated points; the kernels are
    symmetric entry by entry (see kernels), so no triangle is mirrored here.
    Binomial entries are kept exact in `exact_entries`; a binomial Gram with
    an entry past the double range raises CapacityError.
    """
    a = validate_sample_set(spec, s)
    values = kernel_values(spec, a[:, None], a[None, :])
    if spec.kind != "binomial":
        return GramMatrix(spec, s, values)
    try:
        entries = values.astype(float)
    except OverflowError:
        raise CapacityError(
            f"binomial Gram over {len(s)} points has entries beyond the double range "
            f"(largest C({2 * int(a[-1])}, {int(a[-1])}))"
        ) from None
    return GramMatrix(spec, s, entries, exact_entries=tuple(map(tuple, values.tolist())))


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a, or SingularMatrixError.

    Row by row ("bordered"): row j is the forward solve
    r = L[:j, :j]^-1 a[j, :j] followed by the pivot a[j, j] - r.r, so the
    failing pivot index is visible.  Row j reads only a[j, :j+1] and the rows
    before it, which makes the factorization prefix-consistent: the factor of
    a[:n, :n] is bit for bit the leading n x n block of the factor of a, and
    a singular a raises at the first index whose prefix fails on its own.
    Nested-prefix probes rely on this to read every prefix off one factor.

    Rows are stored packed, one after another, so every leading block is a
    contiguous prefix of the buffer and each forward solve is one BLAS
    packed triangular solve (dtpsv) without copying; the buffer has room for
    the full matrix and is unpacked in place at the end.  A column-oriented
    loop or LAPACK potrf is not prefix-consistent: its rounding depends on
    the matrix order through row-count-sized or blocked BLAS kernels, so a
    pivot near the floor can pass in the full matrix and fail in a prefix.
    On the binomial Gram over 0..40, which is exactly Pascal Pascal^T with
    unit pivots, a column loop passes pivot 29 as 64 while the 30-point
    prefix alone fails there with -176; potrf (OpenBLAS) fails at 29 on
    both, with pivots -56 and -176.

    No jitter is ever added; callers wanting Tikhonov damping must add it
    explicitly.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # Row j of L is packed at buf[j(j+1)/2 : (j+1)(j+2)/2]; read column-wise,
    # the packed rows are L^T packed as an upper triangle, hence trans=1.
    # Row 0 has nothing to solve, and dtpsv rejects an empty vector.
    buf = np.zeros(n * n)
    for j in range(n):
        start = j * (j + 1) // 2
        r = dtpsv(j, buf[:start], a[j, :j], trans=1) if j else a[j, :0]
        d = a[j, j] - r @ r
        if not d > PIVOT_FLOOR:
            raise SingularMatrixError(
                f"matrix is singular or indefinite: pivot {d:.3e} at index {j} "
                f"(floor {PIVOT_FLOOR:.0e})",
                pivot_index=j,
            )
        buf[start:start + j] = r
        buf[start + j] = math.sqrt(d)
    # Unpack in place, last row first: row j moves out to j*n, which lies
    # past every row still packed before it, and its upper part is cleared.
    for j in range(n - 1, -1, -1):
        start = j * (j + 1) // 2
        buf[j * n:j * n + j + 1] = buf[start:start + j + 1].copy()
        buf[j * n + j + 1:(j + 1) * n] = 0.0
    return buf.reshape(n, n)


def cholesky_solve(a: np.ndarray, rhs) -> np.ndarray:
    """Solve a @ v = rhs for SPD a: one factorization, then two substitutions.

    The package's one SPD solve; rhs must hold one entry per row of a.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (a.shape[0],):
        raise ValidationError(f"rhs length {rhs.shape} does not match Gram order {a.shape[0]}")
    lower = cholesky_factor(a)
    y = scipy.linalg.solve_triangular(lower, rhs, lower=True)
    return scipy.linalg.solve_triangular(lower.T, y, lower=False)


def det_lu(matrix) -> float | None:
    """Determinant via partial-pivot LU; the dense oracle side of the closed forms.

    None when the product of the LU pivots is not a finite double (the
    binomial Gram over 0..100, whose determinant is exactly 1, overflows).
    """
    if isinstance(matrix, GramMatrix):
        matrix = matrix.entries
    a = np.asarray(matrix, dtype=float)
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    sign = 1.0 if np.count_nonzero(piv != np.arange(a.shape[0])) % 2 == 0 else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        det = sign * float(np.prod(np.diag(lu)))
    return det if math.isfinite(det) else None


def det_brownian_closed(s: SampleSet) -> float:
    """x1 (x2-x1) ... (xn-x_{n-1}) for strictly positive increasing points."""
    validate_sample_set(KernelSpec.brownian(), s)
    pts = s.points
    det = pts[0]
    for a, b in zip(pts, pts[1:]):
        det *= b - a
    return det


def det_bridge_closed(s: SampleSet) -> float:
    """x1 (x2-x1) ... (xn-x_{n-1}) (1-xn) for points inside (0,1)."""
    validate_sample_set(KernelSpec.bridge(), s)
    pts = s.points
    det = pts[0]
    for a, b in zip(pts, pts[1:]):
        det *= b - a
    return det * (1.0 - pts[-1])


@dataclass(frozen=True)
class PascalMatrix:
    """Exact lower-triangular Pascal matrix: entry (x, y) = C(x, y)."""

    order: int
    entries: tuple[tuple[int, ...], ...]


def pascal_lower(n: int) -> PascalMatrix:
    """(n+1) x (n+1) lower-triangular Pascal matrix as exact integers."""
    n = check_int("order", n, 0)
    if n > PASCAL_CAPACITY:
        raise CapacityError(
            f"order {n} exceeds the documented Pascal capacity ceiling {PASCAL_CAPACITY}"
        )
    rows = tuple(
        tuple(math.comb(x, y) if y <= x else 0 for y in range(n + 1)) for x in range(n + 1)
    )
    return PascalMatrix(order=n, entries=rows)


def pascal_inverse(n: int) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of pascal_lower(n): entry (x, y) = (-1)^(x-y) C(x, y)."""
    low = pascal_lower(n).entries
    return tuple(
        tuple(c if (x - y) % 2 == 0 else -c for y, c in enumerate(row))
        for x, row in enumerate(low)
    )


def binomial_gram_inverse_exact(n: int) -> tuple[tuple[int, ...], ...]:
    """Exact integer inverse of the binomial Gram over {0..n}.

    Assembled as (L^T)^-1 (L)^-1 from the exact Pascal inverse, so the
    diagonal entry at x is sum_{k=x}^{n} C(k,x)^2.
    """
    linv = pascal_inverse(n)
    m = len(linv)
    return tuple(
        tuple(sum(linv[k][x] * linv[k][y] for k in range(max(x, y), m)) for y in range(m))
        for x in range(m)
    )


def binomial_gram_inverse(n: int) -> np.ndarray:
    """Float view of the exact binomial Gram inverse over {0..n}."""
    return np.array(binomial_gram_inverse_exact(n), dtype=float)


def gram_to_csv(g: GramMatrix) -> str:
    """Rows of the full symmetric matrix, one CSV line per row."""
    lines = [",".join(repr(v) for v in row) for row in g.entries.tolist()]
    return "\n".join(lines) + "\n"


def gram_report(g: GramMatrix) -> dict:
    """JSON-ready report: order, points, entries, and both determinant routes."""
    if g.spec.kind == "brownian":
        det_closed = det_brownian_closed(g.sample_set)
    elif g.spec.kind == "bridge":
        det_closed = det_bridge_closed(g.sample_set)
    else:
        det_closed = None
    return {
        "order": g.order,
        "points": list(g.sample_set.points),
        "entries": g.entries.tolist(),
        "det_closed": det_closed,
        "det_lu": det_lu(g),
    }
