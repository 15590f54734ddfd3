"""Sampling viewed as a frame: synthesis, bounds, and defects.

The sample map takes a function to its values on the sample set; its adjoint
sends coefficients to a kernel combination.  Over a finite sample set the
frame bounds of the sampled system are the extreme eigenvalue reciprocals of
the Gram matrix, and for integer sinc sampling the diagonal reproducing
identity K(t,t) = sum_s K(t,s)^2 holds exactly in the infinite limit, so its
truncated defect is a quality measure with an explicit tail bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SingularMatrixError, ValidationError
from .gram import build_gram, cholesky_factor, cholesky_solve
from .kernels import MAX_GRAM_ENTRIES, KernelSpec, SampleSet, check_domain, kernel_values


@dataclass(frozen=True)
class FrameReport:
    """Frame diagnostics for one kernel/sample-set pair over a probe grid.

    lower_bound/upper_bound are the truncated frame constants (None when the
    caller skipped the eigenvalue pass), parseval_defect the worst diagonal
    reproducing-identity defect over the grid, and tail_bound the analytic
    truncation tail, available only for sinc sampling on integers.
    """

    lower_bound: float | None
    upper_bound: float | None
    parseval_defect: float
    truncation: SampleSet
    probe_grid: tuple[float, ...]
    tail_bound: float | None = None


@dataclass(frozen=True)
class CoefficientFunction:
    """Finite kernel combination t -> sum_i coefficients[i] * K(t, points[i]).

    A call evaluates the kernel row K(t, points) as one 1 x n block and sums
    the products coefficients[i] * K(t, points[i]) with math.fsum: each
    product is rounded once and their sum is rounded once, so the value does
    not depend on summation order, BLAS kernels or array alignment, and two
    calls with identical inputs are bit-for-bit reproducible.  The sample
    points are checked against the kernel's domain once, at construction;
    a call checks only t.
    """

    spec: KernelSpec
    sample_set: SampleSet
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.sample_set):
            raise ValidationError(
                f"{len(self.coefficients)} coefficients for "
                f"{len(self.sample_set)} sample points"
            )
        object.__setattr__(self, "_nodes", check_domain(self.spec, self.sample_set.points))
        object.__setattr__(self, "_weights", np.asarray(self.coefficients, dtype=float))

    def __call__(self, t: float) -> float:
        row = kernel_values(self.spec, check_domain(self.spec, t), self._nodes)
        return math.fsum((self._weights * row).tolist())


def synthesis(spec: KernelSpec, s: SampleSet, coefficients) -> CoefficientFunction:
    """Adjoint of the sample map: finite coefficients to a kernel combination.

    With samples as coefficients it is the truncated reconstruction, for
    sinc sampling on integers the classical cardinal series.
    """
    coefficients = tuple(float(c) for c in coefficients)
    if not all(map(math.isfinite, coefficients)):
        raise ValidationError("coefficients must be finite")
    return CoefficientFunction(spec, s, coefficients)


def _bounds_of(gram: np.ndarray) -> tuple[float, float]:
    # The factorization is the package-wide singularity gate (pivot floor,
    # index payload); run it before the eigensolve.
    cholesky_factor(gram)
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise SingularMatrixError(
            f"Gram matrix has non-positive eigenvalue {lo:.3e}; frame bounds undefined"
        )
    return 1.0 / hi, 1.0 / lo


def frame_bounds_truncated(spec: KernelSpec, s: SampleSet) -> tuple[float, float]:
    """(a, b) with a |f|_samples^2 <= |f|^2 <= b |f|_samples^2 on the span.

    a = 1/lambda_max(G) and b = 1/lambda_min(G) over the truncated span:
    with f = sum c_s K(., s), the two quadratic forms are c'Gc and c'G^2c,
    and these are the extreme Rayleigh-quotient ratios.  A non-positive
    smallest eigenvalue means the sampled system is degenerate and there is
    no finite upper bound, reported as a singular-matrix failure.
    """
    return _bounds_of(build_gram(spec, s))


def _integer_range(s: SampleSet) -> tuple[int, int] | None:
    """(lo, hi) when s is exactly the integers lo, lo+1, ..., hi, else None."""
    pts = s.points
    if not all(float(p).is_integer() for p in pts):
        return None
    lo, hi = int(pts[0]), int(pts[-1])
    return (lo, hi) if len(pts) == hi - lo + 1 else None


def _sinc_integer_tail(s: SampleSet, grid) -> float | None:
    """Analytic truncation tail for integer sinc sampling, else None.

    With samples covering the integers of [-N, N] and |t| < N, the discarded
    diagonal mass sum_{|s|>N} K(t,s)^2 is below 2 / (pi^2 (N - max|t|)).
    """
    span = _integer_range(s)
    if span is None:
        return None
    n_eff = min(-span[0], span[1])
    t_max = max(abs(float(t)) for t in grid)
    if n_eff <= t_max:
        return None
    return 2.0 / (np.pi**2 * (n_eff - t_max))


def parseval_defect(
    spec: KernelSpec,
    s: SampleSet,
    grid,
    tail_budget: float | None = None,
    include_bounds: bool = False,
) -> FrameReport:
    """Worst diagonal reproducing-identity defect of the truncated system.

    For each grid point t computes |K(t,t) - sum_s K(t,s)^2| and reports the
    maximum, from one grid x S kernel block and the diagonal K(t,t); each
    row sum is numpy's pairwise sum, fixed for a given input.  For integer
    sinc sampling the analytic tail bound is attached; when tail_budget is
    given, it must be finite and non-negative, and a tail bound above it is
    rejected.  The eigenvalue-based frame bounds run only when
    include_bounds is set, since they cost a dense symmetric eigensolve.
    A block of more than MAX_GRAM_ENTRIES entries raises CapacityError
    before it is built.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValidationError("probe grid must contain at least one point")
    if tail_budget is not None and not 0.0 <= tail_budget < math.inf:
        raise ValidationError(f"tail budget must be finite and non-negative, got {tail_budget}")
    if len(grid) * len(s) > MAX_GRAM_ENTRIES:
        raise CapacityError(
            f"{len(grid)} x {len(s)} Parseval block has more entries than the documented "
            f"ceiling {MAX_GRAM_ENTRIES}"
        )
    g = check_domain(spec, grid)
    block = kernel_values(spec, g[:, None], check_domain(spec, s.points)[None, :])
    block *= block
    total = block.sum(axis=1)
    defect = float(np.max(np.abs(kernel_values(spec, g, g) - total)))
    tail = _sinc_integer_tail(s, grid) if spec.kind == "sinc" else None
    if tail_budget is not None:
        if tail is None:
            raise ValidationError(
                "tail budget given but no analytic tail bound applies "
                "(needs sinc kernel, integer samples, grid inside the sampled range)"
            )
        if tail > tail_budget:
            raise ValidationError(
                f"truncation tail bound {tail:.3e} exceeds budget {tail_budget:.3e}"
            )
    lower = upper = None
    if include_bounds:
        lower, upper = _bounds_of(build_gram(spec, s))
    return FrameReport(
        lower_bound=lower,
        upper_bound=upper,
        parseval_defect=defect,
        truncation=s,
        probe_grid=tuple(grid),
        tail_bound=tail,
    )


def dual_frame_coefficients(spec: KernelSpec, s: SampleSet, samples) -> CoefficientFunction:
    """Interpolating kernel combination: synthesis of G^{-1} samples.

    Evaluating the result at each sample point reproduces the input samples
    (to solver accuracy), since the sample map composed with synthesis acts
    as the Gram matrix on coefficients.
    """
    c = cholesky_solve(build_gram(spec, s), samples)
    return synthesis(spec, s, c)
