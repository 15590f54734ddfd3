"""Gram matrices, SPD solves, closed-form determinants, and Pascal algebra.

Every matrix here is a plain ndarray: a Gram is a read-only float64 array,
and every exact integer matrix is an object array of Python ints.  Every
closed form doubles as a test oracle against an independent dense code path:

  det_brownian_closed / det_bridge_closed   product formulas, checked against
                                            a partial-pivot LU determinant
  pascal_lower / pascal_inverse             exact integer Pascal triangles with
                                            an exact alternating-sign inverse
  binomial_gram_inverse                     inverse binomial Gram assembled
                                            from the exact Pascal inverse

Continuous kernels live in IEEE doubles.  The binomial Gram's exact integer
entries are kernels.kernel_matrix's object array; build_gram converts them
to doubles for the linear algebra.

One pipeline serves every solve: build_gram, the one Gram build, whose
entries come from kernels.kernel_values on points checked by
kernels.check_domain; then cholesky_factor, the one route to a factor; then
cholesky_solve, the package's only SPD solve, or substitutions read directly
off the factor by the probes.  det_lu is None, and reports carry
"det_lu": null, when the LU determinant leaves the double range, as it
does for the binomial Gram over 0..100.
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.linalg.lapack import dpotrf

from .errors import CapacityError, SingularMatrixError, ValidationError, check_int
from .kernels import MAX_GRAM_ENTRIES, KernelSpec, SampleSet, kernel_values, validate_sample_set

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

# Largest point x of a binomial Gram that fits doubles: the largest entry,
# C(2x, x) at the last point, is below the double maximum at x = 514 and
# above it at x = 515, so no entry needs computing to decide the overflow.
BINOMIAL_GRAM_MAX_POINT = 514

# Rows per cholesky_factor block; fixed, so no BLAS call's shape depends on n.
_BLOCK = 32


def build_gram(spec: KernelSpec, s: SampleSet) -> np.ndarray:
    """Full symmetric Gram matrix of the kernel over the sample set, read-only float64.

    One block evaluation over the validated points; the kernels are
    symmetric entry by entry (see kernels), so no triangle is mirrored here.
    Binomial entries are computed exactly and converted to doubles; their
    exact form is kernels.kernel_matrix's.  A Gram with more than
    MAX_GRAM_ENTRIES entries, or a binomial Gram with an entry past the
    double range, raises CapacityError before any entry is computed.
    """
    a = validate_sample_set(spec, s)
    if a.size**2 > MAX_GRAM_ENTRIES:
        raise CapacityError(
            f"Gram over {a.size} points has more entries than the documented ceiling "
            f"{MAX_GRAM_ENTRIES}"
        )
    if spec.kind == "binomial" and a[-1] > BINOMIAL_GRAM_MAX_POINT:
        raise CapacityError(
            f"binomial Gram over {len(s)} points has entries beyond the double range "
            f"(largest C({2 * int(a[-1])}, {int(a[-1])}))"
        )
    entries = kernel_values(spec, a[:, None], a[None, :]).astype(float, copy=False)
    entries.flags.writeable = False
    return entries


def check_positive_definite(spec: KernelSpec, s: SampleSet, tol: float):
    """Smallest Gram eigenvalue over s and the flag (min_eigenvalue >= -tol).

    Pure diagnostic on the entries of build_gram; nothing is cached.
    """
    min_eig = float(np.linalg.eigvalsh(build_gram(spec, s))[0])
    return (min_eig >= -tol, min_eig)


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a, or SingularMatrixError.

    a must be a finite square 2-D array (ValidationError otherwise); only its
    lower triangle enters L.  Rows are factored in blocks J = [j0, j0 + 32),
    j0 = 32k, at fixed boundaries: one dtrsm X = a[J, :j0] L[:j0, :j0]^-T
    against the finished rows, one dsyrk S = a[J, J] - X X^T and one dpotrf
    of S.  The last block is padded to 32 rows with identity rows, so each
    BLAS and LAPACK call for block k has one shape whatever the order of a,
    and no entry of row j reads a later row.  The factorization is therefore
    prefix-consistent: the factor of a[:n, :n] is bit for bit the leading
    n x n block of the factor of a, and a singular a raises at the first
    index whose prefix fails on its own.  Nested-prefix probes rely on this
    to read every prefix off one factor; on a singular a, the truncation
    route of massprobe.probe_report reads the longest prefix that factors
    off the same factor pass (_factor_prefix).  LAPACK potrf over the whole
    matrix is not prefix-consistent: its blocking takes its shapes from the
    order, so a pivot near the floor can pass in the full matrix and fail in
    a prefix.

    Pivots are checked against PIVOT_FLOOR after each block's dpotrf, which
    alone accepts pivots in (0, PIVOT_FLOOR] and may let a NaN through.  The
    binomial Gram over 0..40 is exactly Pascal Pascal^T with unit pivots, but
    its float entries are exact only over 0..28: it fails at pivot 29 with
    -176, in the full matrix and in the 30-point prefix alike.

    L is kept and returned column-major (Fortran order): the BLAS wrappers
    copy L[:j0, :j0] for each block's dtrsm, and from column-major storage
    that copy is a plain one rather than a transpose.

    No jitter is ever added; callers wanting Tikhonov damping must add it
    explicitly.
    """
    lower, error = _factor_prefix(a)
    if error is not None:
        raise error
    return lower


def _factor_prefix(a) -> tuple[np.ndarray, SingularMatrixError | None]:
    """(L, None) for cholesky_factor's L, or the finished prefix and its error.

    When pivot j fails, L is the j x j leading factor, bit for bit
    cholesky_factor(a[:j, :j]) by prefix consistency, and the error is the
    SingularMatrixError that cholesky_factor raises, pivot_index j.  Rows
    before a failing pivot are finished in its block's dpotrf whether or not
    potrf stopped there.  Invalid input raises ValidationError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix to factor must be square and 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix to factor must be finite")
    n = a.shape[0]
    low = np.zeros((-(-n // _BLOCK) * _BLOCK,) * 2, order="F")
    for j0 in range(0, n, _BLOCK):
        j1 = j0 + _BLOCK
        rows = a[j0:j1, :j1]
        if j1 > n:
            rows = np.eye(_BLOCK, j1, j0)
            rows[:n - j0, :n] = a[j0:]
        s = rows[:, j0:]
        if j0:
            x = dtrsm(1.0, low[:j0, :j0], rows[:, :j0], side=1, lower=1, trans_a=1)
            s = dsyrk(-1.0, x, beta=1.0, c=s, lower=1)
            low[j0:j1, :j0] = x
        c, info = dpotrf(s, lower=1)
        low[j0:j1, j0:j1] = c
        pivots = np.diagonal(c)[:n - j0] ** 2
        if info:
            pivots[info - 1] = c[info - 1, info - 1]  # potrf leaves it unrooted
        failed = ~(pivots > PIVOT_FLOOR)
        if failed.any():
            j = j0 + int(np.argmax(failed))
            error = SingularMatrixError(
                f"matrix is singular or indefinite: pivot {pivots[j - j0]:.3e} at index {j} "
                f"(floor {PIVOT_FLOOR:.0e})",
                pivot_index=j,
            )
            return np.asfortranarray(low[:j, :j]), error
    return np.asfortranarray(low[:n, :n]), None


def cholesky_solve(a: np.ndarray, rhs) -> np.ndarray:
    """Solve a @ v = rhs for SPD a: one factorization, then two substitutions.

    The package's one SPD solve; rhs must hold one finite entry per row of a.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (a.shape[0],):
        raise ValidationError(f"rhs length {rhs.shape} does not match Gram order {a.shape[0]}")
    if not np.all(np.isfinite(rhs)):
        raise ValidationError("right-hand side must be finite")
    lower = cholesky_factor(a)
    y = scipy.linalg.solve_triangular(lower, rhs, lower=True)
    return scipy.linalg.solve_triangular(lower.T, y, lower=False)


def det_lu(matrix) -> float | None:
    """Determinant as sign * exp(log|det|) from one partial-pivot LU (slogdet).

    The dense oracle side of the closed forms.  An exactly singular matrix
    gives 0.0; None when the determinant is past the double range (the
    binomial Gram over 0..100, whose determinant is exactly 1, has an LU
    pivot product that overflows).
    """
    sign, logdet = np.linalg.slogdet(np.asarray(matrix, dtype=float))
    try:
        return float(sign) * math.exp(logdet)
    except OverflowError:
        return None


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


def pascal_lower(n: int) -> np.ndarray:
    """(n+1) x (n+1) lower-triangular Pascal matrix C(x, y), an object array of ints.

    One block of math.comb, which is 0 above the diagonal (y > x).
    """
    n = check_int("order", n, 0)
    if n > PASCAL_CAPACITY:
        raise CapacityError(
            f"order {n} exceeds the documented Pascal capacity ceiling {PASCAL_CAPACITY}"
        )
    k = np.arange(n + 1, dtype=object)
    return np.frompyfunc(math.comb, 2, 1)(k[:, None], k[None, :])


def pascal_inverse(n: int) -> np.ndarray:
    """Exact inverse of pascal_lower(n): entry (x, y) = (-1)^(x-y) C(x, y)."""
    inv = pascal_lower(n)
    inv[1::2, ::2] *= -1  # the entries with x - y odd
    inv[::2, 1::2] *= -1
    return inv


def binomial_gram_inverse_exact(n: int) -> np.ndarray:
    """Exact integer inverse of the binomial Gram over {0..n}, an object array.

    Assembled as (L^T)^-1 (L)^-1 from the exact Pascal inverse, so the
    diagonal entry at x is sum_{k=x}^{n} C(k,x)^2.
    """
    linv = pascal_inverse(n)
    return linv.T @ linv


def binomial_gram_inverse(n: int) -> np.ndarray:
    """Float view of the exact binomial Gram inverse over {0..n}."""
    return binomial_gram_inverse_exact(n).astype(float)
