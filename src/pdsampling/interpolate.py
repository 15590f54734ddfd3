"""Spline and ridge interpolation plus the saw-tooth obstruction probe.

Two families of interpolants live here.  Piecewise-linear splines carry an
exact first-derivative energy sum_j (dy_j)^2/dx_j, which makes admissibility
of an interpolation problem a finite check and powers the saw-tooth witness:
a tent train vanishing on a whole sample set with finite energy, showing the
kernel translates over that set are not dense.  Kernel ridge interpolants
solve (alpha W^-1 + G) c = y; with alpha = 0 they reduce to exact
interpolation, and an augmented variant probes whether a target value at a
new point can be forced while staying small on the sample set.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_increasing
from .frames import CoefficientFunction
from .gram import build_gram, cholesky_solve
from .kernels import KernelSpec, SampleSet, check_domain


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Continuous piecewise-linear function, constant beyond the end knots."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        check_increasing("knots", self.knots)
        if len(self.knots) != len(self.values):
            raise ValidationError(
                f"{len(self.knots)} knots but {len(self.values)} values"
            )
        if not np.isfinite(np.asarray(self.values, dtype=float)).all():
            raise ValidationError("values must be finite")

    def __call__(self, t):
        out = np.interp(t, self.knots, self.values)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def cm_norm_sq(f: PiecewiseLinearFunction) -> float:
    """First-derivative energy: the exact segment sum of (dy)^2/dx."""
    dy = np.diff(f.values)
    dx = np.diff(f.knots)
    return float(np.sum(dy * dy / dx)) if dy.size else 0.0


@dataclass(frozen=True)
class SplineInterpolant:
    """Piecewise-linear interpolant with its energy and admissibility flag."""

    function: PiecewiseLinearFunction
    norm_sq: float
    admissible: bool


def spline_interpolant(
    x: SampleSet, y, finiteness_budget: float = math.inf
) -> SplineInterpolant:
    """Minimal-energy interpolant through (x_j, y_j).

    The linear spline is the energy minimizer among all absolutely continuous
    interpolants, so its energy decides admissibility against the budget,
    which must be non-negative (inf, the default, admits every interpolant).
    The norm here is accumulated compensated, term by term, independently of
    the vectorized path in cm_norm_sq.
    """
    if not finiteness_budget >= 0.0:
        raise ValidationError(f"finiteness budget must be non-negative, got {finiteness_budget}")
    y = tuple(float(v) for v in y)
    if len(y) != len(x):
        raise ValidationError(f"{len(y)} values for {len(x)} sample points")
    f = PiecewiseLinearFunction(x.points, y)
    pts = x.points
    norm = math.fsum(
        (y[j + 1] - y[j]) ** 2 / (pts[j + 1] - pts[j]) for j in range(len(y) - 1)
    )
    return SplineInterpolant(function=f, norm_sq=norm, admissible=norm <= finiteness_budget)


def tent_basis(x_lo: float, x_hi: float) -> PiecewiseLinearFunction:
    """Unit-slope tent on [x_lo, x_hi]: zero at the ends, peak (x_hi-x_lo)/2."""
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)) or x_lo >= x_hi:
        raise ValidationError(f"invalid tent interval ({x_lo}, {x_hi})")
    mid = x_lo + (x_hi - x_lo) / 2.0
    return PiecewiseLinearFunction(
        knots=(x_lo, mid, x_hi), values=(0.0, (x_hi - x_lo) / 2.0, 0.0)
    )


def sawtooth_witness(s: SampleSet, slopes=None) -> PiecewiseLinearFunction:
    """Tent train vanishing at every point of s, with summable energy.

    Tooth n (1-based) sits on [x_n, x_{n+1}] with slope magnitude c_n, so the
    energy is exactly sum c_n^2 (x_{n+1}-x_n).  The default slopes
    c_n = 1/(n sqrt(x_{n+1}-x_n)) make that sum a Basel-series partial sum,
    finite no matter how the points spread; the witness is then a nonzero
    finite-energy function orthogonal to every kernel section over s.
    """
    pts = s.points
    n_teeth = len(pts) - 1
    if slopes is None:
        slopes = tuple(
            1.0 / ((i + 1) * math.sqrt(pts[i + 1] - pts[i])) for i in range(n_teeth)
        )
    else:
        slopes = tuple(float(c) for c in slopes)
        if len(slopes) != n_teeth:
            raise ValidationError(
                f"{len(slopes)} slopes for {n_teeth} inter-sample intervals"
            )
    if n_teeth == 0:
        return PiecewiseLinearFunction(knots=(pts[0],), values=(0.0,))
    knots = [pts[0]]
    values = [0.0]
    for i in range(n_teeth):
        dx = pts[i + 1] - pts[i]
        knots.append(pts[i] + dx / 2.0)
        values.append(slopes[i] * dx / 2.0)
        knots.append(pts[i + 1])
        values.append(0.0)
    return PiecewiseLinearFunction(knots=tuple(knots), values=tuple(values))


def sawtooth_energy_closed(s: SampleSet, slopes=None) -> float:
    """Closed-form energy sum c_n^2 dx_n of the saw-tooth witness."""
    pts = s.points
    n_teeth = len(pts) - 1
    if slopes is None:
        return math.fsum(1.0 / ((i + 1) ** 2) for i in range(n_teeth))
    slopes = tuple(float(c) for c in slopes)
    if len(slopes) != n_teeth:
        raise ValidationError(f"{len(slopes)} slopes for {n_teeth} inter-sample intervals")
    return math.fsum(slopes[i] ** 2 * (pts[i + 1] - pts[i]) for i in range(n_teeth))


def _ridge_fit(spec: KernelSpec, s: SampleSet, y, alpha: float, weights, probe_index=None):
    """(c, G c, w): the solution c of (G + diag(alpha / w)) c = y over s.

    Checks alpha, then the targets' shape, then builds the Gram, then checks
    the weights: one finite, strictly positive value per sample point, all
    ones when None.  With probe_index set, that point of s is the
    obstruction probe point, which is not a sample point and carries weight
    1 in the solve.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise ValidationError(f"alpha must be finite and non-negative, got {alpha}")
    y = np.asarray([float(v) for v in y], dtype=float)
    if y.shape != (len(s),):
        raise ValidationError(f"{y.size} targets for {len(s)} sample points")
    entries = build_gram(spec, s).entries
    n = len(s) if probe_index is None else len(s) - 1
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray([float(v) for v in weights], dtype=float)
        if w.shape != (n,):
            raise ValidationError(f"{w.size} weights for {n} sample points")
        if not (np.isfinite(w) & (w > 0.0)).all():
            raise ValidationError("weights must be finite and strictly positive")
    penalty = w if probe_index is None else np.insert(w, probe_index, 1.0)
    c = cholesky_solve(entries + np.diag(alpha / penalty), y)
    return c, entries @ c, w


def ridge_interpolant(
    spec: KernelSpec, s: SampleSet, y, alpha: float, weights=None
) -> CoefficientFunction:
    """Kernel ridge coefficients: solve (alpha W^-1 + G) c = y.

    W = diag(weights), all-ones by default.  alpha = 0 gives exact
    interpolation: the same solve, with a zero diagonal added.
    """
    c, _, _ = _ridge_fit(spec, s, y, alpha, weights)
    return CoefficientFunction(spec, s, tuple(float(v) for v in c))


@dataclass(frozen=True)
class ObstructionProbeResult:
    """Outcome of forcing value y0 at t0 while penalizing the sample set.

    minimum_value is the attained minimum of
    sum_j w_j f(x_j)^2 + (f(t0) - y0)^2 + alpha |f|_H^2 over kernel
    combinations on the augmented point set; a minimum near |y0|^2 says the
    target cannot be approached without either mass on the sample set or
    unbounded norm, the finite shadow of the sample set being blind to t0.
    """

    minimum_value: float
    minimizer: CoefficientFunction
    residuals_at_s: tuple[float, ...]
    value_at_t0: float
    alpha: float
    weights: tuple[float, ...]


def obstruction_probe(
    spec: KernelSpec, s: SampleSet, t0: float, y0: float, alpha: float, weights=None
) -> ObstructionProbeResult:
    """Minimize the penalized target functional over span K(., s u {t0}).

    The minimizer of the quadratic objective over the whole space lies in the
    span of the kernel sections at the points the objective touches, so the
    augmented ridge solve attains the exact minimum of this objective.
    Targets are zero at each sample point and y0 at t0.
    """
    t0 = float(t0)
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValidationError(f"alpha must be finite and strictly positive, got {alpha}")
    check_domain(spec, t0)
    if t0 in s.points:
        raise ValidationError(f"probe point {t0} already belongs to the sample set")

    i0 = bisect_left(s.points, t0)
    aug = SampleSet.of(s.points[:i0] + (t0,) + s.points[i0:])
    targets = tuple(0.0 if k != i0 else float(y0) for k in range(len(aug)))

    c, u, w = _ridge_fit(spec, aug, targets, alpha, weights, probe_index=i0)
    w = tuple(w.tolist())
    minimizer = CoefficientFunction(spec, aug, tuple(float(v) for v in c))
    norm_sq = float(c @ u)
    value_at_t0 = float(u[i0])
    residuals = tuple(float(u[k]) for k in range(len(aug)) if k != i0)
    minimum = (
        math.fsum(w[j] * residuals[j] ** 2 for j in range(len(residuals)))
        + (value_at_t0 - float(y0)) ** 2
        + alpha * norm_sq
    )
    return ObstructionProbeResult(
        minimum_value=minimum,
        minimizer=minimizer,
        residuals_at_s=residuals,
        value_at_t0=value_at_t0,
        alpha=alpha,
        weights=w,
    )
