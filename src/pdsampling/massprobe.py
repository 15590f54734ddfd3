"""Discrete-mass probes: does a point evaluation carry finite dual norm?

For a kernel K and a countable point set V, the squared dual norm of the
evaluation functional at x = V[i] over the first n points is

    q_n = (K_n^{-1} e_x)(x),

the x-diagonal entry of the inverse truncated Gram.  The sequence q_n is
non-decreasing; a finite sup means the point mass at x embeds in the sampled
function space with that norm, an unbounded one means it does not.  Brownian
and bridge kernels stabilize after one extra neighbor (closed forms below);
the binomial kernel diverges for every target, and the probe machinery is
generic enough to report either behavior with the closed forms as oracles.

Every prefix is read off one factor pass.  The Cholesky factor L of the
full Gram is prefix-consistent (gram.cholesky_factor), so L[:n, :n] is the
factor of K_n and

    q_n = sum_{k<n} (L^-1)_{k,x}^2,

a cumulative sum over one column of L^-1: exactly 0 while the prefix does
not reach x, exactly non-decreasing after.  The membership sequence
f_n^T K_n^-1 f_n is likewise the cumulative sum of (L^-1 f)_k^2.  For the
binomial kernel L is the Pascal matrix and L^-1 its signed inverse, so q_n
is the closed form sum C(k,x)^2 term by term.  The float binomial Gram
equals the exact one only over the points 0..28, since C(57,28) > 2^53; on
0..N with N > 28 the factorization fails at pivot 29, probe_report ends the
sequence after 29 entries with a diverging verdict, and closed_form still
gives the sum for the requested prefix.  Those 29 entries are read off the
finished 29 x 29 leading factor that the failed pass hands back
(gram._factor_prefix); the Gram is factored once per report.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError, check_int
from .gram import _factor_prefix, build_gram, cholesky_factor
from .kernels import KernelSpec, SampleSet, binom, validate_sample_set

REL_INCREMENT_THRESHOLD = 1e-10
VERDICT_WINDOW = 5
DIVERGENCE_FACTOR = 1.5
MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class Verdict:
    """Trend call on a probe sequence: bounded, diverging, or inconclusive."""

    kind: str
    limit: float | None = None

    def __post_init__(self):
        if self.kind not in ("bounded", "diverging", "inconclusive"):
            raise ValidationError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "bounded" and self.limit is None:
            raise ValidationError("bounded verdict requires a limit value")


@dataclass(frozen=True)
class MassProbeReport:
    kernel: KernelSpec
    v_prefix: SampleSet
    target_index: int
    norms: tuple[float, ...]
    verdict: Verdict
    closed_form: float | None


def _probe_prefix(spec: KernelSpec, v: SampleSet, x_index, n_max) -> tuple[SampleSet, int]:
    """The validated first n_max points and the validated target index."""
    validate_sample_set(spec, v)
    n_max = check_int("n_max", n_max, 1, len(v) + 1)
    return v.prefix(n_max), check_int("x_index", x_index, 0, n_max)


def _delta_norms(lower: np.ndarray, x_index: int, k_xx: float) -> list[float]:
    """q_1..q_n off the Cholesky factor of the n-point Gram.

    w = L^-1 e_x vanishes above x; the entries before x are set to exactly 0
    rather than read off w.  For x = 0 the n = 1 entry is the literal
    reciprocal 1/k_xx of the Gram diagonal K(x,x) rather than (1/L_00)^2, so
    the 1x1 inverse is exact.
    """
    e = np.zeros(len(lower))
    e[x_index] = 1.0
    w = solve_triangular(lower, e, lower=True)[x_index:]
    terms = w * w
    if x_index == 0:
        terms[0] = 1.0 / k_xx
    return [0.0] * x_index + np.cumsum(terms).tolist()


def projection_norm_sequence(
    spec: KernelSpec, v: SampleSet, x_index: int, n_max: int
) -> list[float]:
    """Squared projected norms of the point evaluation at v[x_index].

    Entry n-1 (prefix length n, n = 1..n_max) is the x-diagonal of the
    inverse Gram over the first n points.  While the prefix does not yet
    contain the target point the restricted functional is identically zero,
    so those entries are exactly 0.  All prefixes are read off the one
    factorization of the n_max-point Gram (see the module docstring); a
    singular prefix raises SingularMatrixError with its pivot index.
    """
    vp, x = _probe_prefix(spec, v, x_index, n_max)
    entries = build_gram(spec, vp)
    return _delta_norms(cholesky_factor(entries), x, entries[x, x])


def brownian_delta_norm_closed(v: SampleSet, i: int) -> float:
    """Stabilized squared norm of the point mass at v[i] under min(s,t).

    First point: x2/(x1 (x2-x1)).  Interior point:
    (x_{i+1}-x_{i-1})/((x_i-x_{i-1})(x_{i+1}-x_i)).  The last point keeps
    growing as later points arrive, so it has no stabilized value.
    """
    validate_sample_set(KernelSpec.brownian(), v)
    n = len(v)
    i = check_int("i", i, 0, n)
    pts = v.points
    if i == n - 1:
        raise ValidationError(
            "last-point norm does not stabilize; need a neighbor beyond index "
            f"{i}"
        )
    if i == 0:
        return pts[1] / (pts[0] * (pts[1] - pts[0]))
    return (pts[i + 1] - pts[i - 1]) / ((pts[i] - pts[i - 1]) * (pts[i + 1] - pts[i]))


def bridge_delta_norm_closed(v: SampleSet, i: int) -> float:
    """Same stabilized norm for min(s,t) - st on (0,1); interior indices only.

    Blows up as the point approaches 1, where the bridge pins to zero.
    """
    validate_sample_set(KernelSpec.bridge(), v)
    n = len(v)
    i = check_int("i", i, 0, n)
    if i == 0 or i == n - 1:
        raise ValidationError(f"index {i} needs neighbors on both sides")
    pts = v.points
    return (pts[i + 1] - pts[i - 1]) / ((pts[i + 1] - pts[i]) * (pts[i] - pts[i - 1]))


def binomial_projection_norm_closed(x: int, n: int) -> int:
    """Exact sum_{k=x}^{n} C(k,x)^2, the probe value for target x at depth n.

    Strictly increasing in n without bound: under the binomial kernel no
    point evaluation has finite mass.
    """
    x = check_int("target", x, 0)
    n = check_int("depth", n, x)
    return sum(binom(k, x) ** 2 for k in range(x, n + 1))


def mass_verdict(norms, closed_form: float | None = None) -> Verdict:
    """Classify a non-decreasing probe sequence by its tail behavior.

    Looks at the last VERDICT_WINDOW terms.  All relative increments at or
    below REL_INCREMENT_THRESHOLD (and agreement with the closed form when
    one is supplied) is bounded.  Diverging means the window is strictly
    growing at every step and multiplies by at least the geometric
    divergence factor across the window.  Anything else, including a
    sequence shorter than the window, is inconclusive.
    """
    norms = [float(v) for v in norms]
    for a, b in zip(norms, norms[1:]):
        if b < a - MONOTONE_SLACK * max(1.0, abs(a)):
            raise ValidationError(
                f"probe sequence must be non-decreasing, saw {a!r} then {b!r}"
            )
    if len(norms) < VERDICT_WINDOW:
        return Verdict(kind="inconclusive")
    tail = norms[-VERDICT_WINDOW:]
    increments_small = all(
        b - a <= REL_INCREMENT_THRESHOLD * max(1.0, abs(a))
        for a, b in zip(tail, tail[1:])
    )
    if increments_small:
        last = tail[-1]
        if closed_form is not None and not (
            abs(last - closed_form) <= 1e-8 * abs(closed_form)
        ):
            return Verdict(kind="inconclusive")
        return Verdict(kind="bounded", limit=last)
    strictly_growing = all(b > a for a, b in zip(tail, tail[1:]))
    if strictly_growing and tail[0] > 0.0 and tail[-1] / tail[0] >= DIVERGENCE_FACTOR:
        return Verdict(kind="diverging")
    return Verdict(kind="inconclusive")


def membership_probe(spec: KernelSpec, v: SampleSet, f_values, n_max) -> list[float]:
    """Projected-norm sequence f_n^T K_n^{-1} f_n of sampled data.

    A bounded sup certifies the samples are consistent with some function of
    the kernel space restricted to v, with squared norm at most that sup.
    """
    validate_sample_set(spec, v)
    n_max = check_int("n_max", n_max, 1, len(v) + 1)
    f = np.asarray([float(t) for t in f_values], dtype=float)
    if f.size < n_max:
        raise ValidationError(f"{f.size} sample values for prefix length {n_max}")
    lower = cholesky_factor(build_gram(spec, v.prefix(n_max)))
    z = solve_triangular(lower, f[:n_max], lower=True)
    return np.cumsum(z * z).tolist()


def _auto_closed_form(spec: KernelSpec, v: SampleSet, x_index: int) -> float | None:
    pts = v.points
    n = len(v)
    if spec.kind == "brownian":
        if x_index < n - 1:
            return brownian_delta_norm_closed(v, x_index)
        return None
    if spec.kind == "bridge":
        if 0 < x_index < n - 1:
            return bridge_delta_norm_closed(v, x_index)
        return None
    if spec.kind == "binomial":
        if all(float(p) == k for k, p in enumerate(pts)):
            return float(binomial_projection_norm_closed(int(pts[x_index]), n - 1))
        return None
    return None


def probe_report(
    spec: KernelSpec, v: SampleSet, x_index: int, n_max: int | None = None
) -> MassProbeReport:
    """Run the projection probe and wrap norms, verdict, and oracle together.

    A Gram that turns singular after at least one successful prefix ends the
    sequence there with a diverging verdict (no finite mass); its norms are
    read off the finished leading factor of the one factor pass, the factor
    of the longest prefix that factors.  Singular at or before the target
    index is an input problem and raises that pass's SingularMatrixError.
    """
    if n_max is None:
        n_max = len(v)
    # Inputs are checked first, so a bad target is reported as x_index rather
    # than by the oracle's own argument check.  The closed form runs after the
    # factor, so points too close for the factor raise its error before the
    # oracle's float arithmetic can underflow to a division by zero.
    vp, x = _probe_prefix(spec, v, x_index, n_max)
    entries = build_gram(spec, vp)
    lower, error = _factor_prefix(entries)
    if error is not None and error.pivot_index <= x:
        raise error
    closed = _auto_closed_form(spec, vp, x)
    norms = _delta_norms(lower, x, entries[x, x])
    if error is None:
        verdict = mass_verdict(norms, closed_form=closed)
    else:
        verdict = Verdict(kind="diverging")
    return MassProbeReport(
        kernel=spec,
        v_prefix=vp,
        target_index=x,
        norms=tuple(norms),
        verdict=verdict,
        closed_form=closed,
    )
