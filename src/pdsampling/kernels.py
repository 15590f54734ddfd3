"""Positive definite kernels and validated sample sets.

The kernel zoo:

  sinc       K(s,t) = sin(pi(s-t)) / (pi(s-t)) on the whole real line
  brownian   K(s,t) = min(s,t) for s,t >= 0 (Brownian motion covariance)
  bridge     K(s,t) = min(s,t) - s*t on the open interval (0,1)
  binomial   K(x,y) = sum_{n=0}^{min(x,y)} C(x,n) C(y,n) = C(x+y, x) on the
             non-negative integers (Vandermonde's identity), evaluated in
             exact integer arithmetic
  tabulated  an explicit symmetric table over a finite point set, loaded
             from CSV

Every kernel value the package computes comes from one evaluator,
kernel_values(spec, s, t), which evaluates K elementwise on broadcast arrays
of checked points: a float64 array for the continuous and tabulated kernels,
an object array of exact Python ints for the binomial kernel.  Every point
is checked by one domain rule, check_domain(spec, xs), which takes a point or
a sequence of points and returns them as a checked float64 array.  Gram
matrices, interpolant rows and Parseval sums call the two directly;
kernel_matrix(spec, xs, ys) is the block K(xs[i], ys[j]) and the scalar
eval_kernel its 1x1 block, so the scalar and block routes cannot drift apart.

The exact conventions hold entry by entry:

  sinc       evaluated at |s - t|, so K(s,t) and K(t,s) are the same double
             and every Gram is bit-symmetric; below SINC_GUARD the quadratic
             Taylor term replaces the quotient, non-zero integer offsets give
             exactly 0.0, and no 0/0 is ever formed
  brownian   np.minimum(s, t); bridge np.minimum(s, t) - s*t, symmetric
             because IEEE minimum and products are
  binomial   math.comb(x + y, x), exact integers; a block with some
             x + y > BINOMIAL_CAPACITY raises CapacityError before any
             coefficient is computed
  tabulated  read by fancy indexing from the table's value matrix, whose
             lower triangle mirrors the upper one, so a table holding 0.0 on
             one side and -0.0 on the other still gives bit-symmetric Grams

Domain checks are strict: out-of-domain arguments raise DomainError rather
than being clamped, since the closed-form identities downstream are only
valid on the stated domains.  Points are checked as a whole array and the
first failing point, in order, is the one reported, so a block and a scalar
call report the same message.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ValidationError, check_increasing, check_int

KERNEL_KINDS = ("sinc", "brownian", "bridge", "binomial", "tabulated")

# Below this offset the direct sinc quotient loses digits to cancellation;
# the quadratic Taylor term keeps full double precision.
SINC_GUARD = 1e-8

# Largest x + y for which the binomial kernel computes C(x+y, x).  The
# largest coefficient at the ceiling, C(10000, 5000), has 3009 decimal
# digits: it is exact, takes milliseconds, and stays below the 4300-digit
# limit Python puts on turning an int into text, so every value the kernel
# returns can be reported.
BINOMIAL_CAPACITY = 10_000


@dataclass(frozen=True)
class TabulatedTable:
    """Symmetric kernel values over a finite, strictly increasing point set.

    Construction checks once, on the whole array, that the supplied rows are
    exactly symmetric (entries compare equal), then keeps the upper triangle
    on both sides: `values` holds the mirrored rows.  Lookups binary-search
    the sorted float64 points and read one read-only float matrix, both
    built here once.
    """

    points: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    source: str | None = None

    def __post_init__(self):
        points = check_increasing("tabulated points", self.points)
        n = points.size
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValidationError(f"tabulated table must be {n}x{n} to match its points")
        matrix = np.array(self.values, dtype=float)
        differ = np.argwhere(np.triu(matrix != matrix.T, 1))
        if differ.size:
            i, j = differ[0].tolist()
            raise ValidationError(
                f"tabulated table must be exactly symmetric; "
                f"entries ({i},{j}) and ({j},{i}) differ"
            )
        # 0.0 and -0.0 pass the check; the mirror makes them the same bits.
        mirrored = np.where(np.tri(n, k=-1, dtype=bool), matrix.T, matrix)
        if mirrored.tobytes() != matrix.tobytes():
            object.__setattr__(self, "values", tuple(map(tuple, mirrored.tolist())))
        mirrored.flags.writeable = False
        object.__setattr__(self, "_matrix", mirrored)
        points.flags.writeable = False
        object.__setattr__(self, "_points", points)

    def lookup(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Table values at broadcast arrays of tabulated points."""
        return self._matrix[self._positions(s), self._positions(t)]

    def _positions(self, a: np.ndarray) -> np.ndarray:
        """Binary-search index of each point of a, clipped to the last point.

        A point is tabulated exactly when the table point at its index
        equals it (-0.0 finds 0.0); check_domain tests that equality.
        """
        return np.minimum(np.searchsorted(self._points, a), self._points.size - 1)

    @classmethod
    def from_rows(cls, points, rows, source=None) -> "TabulatedTable":
        return cls(
            points=tuple(float(p) for p in points),
            values=tuple(tuple(float(v) for v in row) for row in rows),
            source=source,
        )

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedTable":
        """Load a table from CSV: header row of points, then the symmetric body."""
        try:
            with open(path, newline="") as fh:
                rows = [row for row in csv.reader(fh) if row]
        except OSError as exc:
            raise ValidationError(f"cannot read tabulated kernel file {path!r}: {exc}")
        if not rows:
            raise ValidationError(f"tabulated kernel file {path!r} is empty")
        try:
            points = [float(v) for v in rows[0]]
            body = [[float(v) for v in row] for row in rows[1:]]
        except ValueError as exc:
            raise ValidationError(f"non-numeric entry in tabulated kernel file {path!r}: {exc}")
        return cls.from_rows(points, body, source=path)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate; for kind 'tabulated' carries the value table."""

    kind: str
    table: TabulatedTable | None = field(default=None)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(
                f"unknown kernel kind {self.kind!r}; expected one of {', '.join(KERNEL_KINDS)}"
            )
        if (self.kind == "tabulated") != (self.table is not None):
            raise ValidationError("a value table is required exactly when kind is 'tabulated'")

    @classmethod
    def sinc(cls):
        return cls("sinc")

    @classmethod
    def brownian(cls):
        return cls("brownian")

    @classmethod
    def bridge(cls):
        return cls("bridge")

    @classmethod
    def binomial(cls):
        return cls("binomial")

    @classmethod
    def tabulated(cls, table: TabulatedTable):
        return cls("tabulated", table)

    def to_text(self) -> str:
        """Serialize to the text form accepted by parse_kernel."""
        if self.kind == "tabulated":
            if self.table.source is None:
                raise ValidationError("tabulated kernel has no source path to serialize")
            return f"tabulated:{self.table.source}"
        return self.kind


def parse_kernel(text: str) -> KernelSpec:
    """Parse 'sinc | brownian | bridge | binomial | tabulated:<path>'."""
    if text.startswith("tabulated:"):
        return KernelSpec.tabulated(TabulatedTable.from_csv(text[len("tabulated:"):]))
    if text in ("sinc", "brownian", "bridge", "binomial"):
        return KernelSpec(text)
    raise ValidationError(
        f"unknown kernel {text!r}; expected sinc | brownian | bridge | binomial | tabulated:<path>"
    )


@dataclass(frozen=True)
class SampleSet:
    """Finite, non-empty, strictly increasing sequence of sample points."""

    points: tuple[float, ...]

    def __post_init__(self):
        check_increasing("sample points", self.points)

    @classmethod
    def of(cls, values) -> "SampleSet":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.points)

    def prefix(self, n: int) -> "SampleSet":
        if not 1 <= n <= len(self.points):
            raise ValidationError(f"prefix length {n} outside 1..{len(self.points)}")
        return SampleSet(self.points[:n])


def check_domain(spec: KernelSpec, xs) -> np.ndarray:
    """The point or points xs as a float64 array, each checked against the kernel's domain.

    The checks run on the whole array at once; the first failing point, in
    order, raises DomainError naming its original value.
    """
    a = np.asarray(xs, dtype=float)
    finite = np.isfinite(a)
    if spec.kind == "brownian":
        ok, rule = a >= 0, "brownian kernel requires arguments >= 0, got {!r}"
    elif spec.kind == "bridge":
        ok, rule = (a > 0) & (a < 1), "bridge kernel requires arguments in the open (0,1), got {!r}"
    elif spec.kind == "binomial":
        ok = (a >= 0) & (a == np.floor(a))
        rule = "binomial kernel requires non-negative integer arguments, got {!r}"
    elif spec.kind == "tabulated":
        ok = spec.table._points[spec.table._positions(a)] == a
        rule = "point {!r} is not in the tabulated point set"
    else:  # sinc: any finite real
        ok, rule = finite, None
    bad = ~(finite & ok)
    if bad.any():
        i = int(np.argmax(bad))
        t = xs if a.ndim == 0 else xs[i]
        if not finite.flat[i]:
            raise DomainError(f"kernel argument must be finite, got {t!r}")
        raise DomainError(rule.format(float(t) if spec.kind == "tabulated" else t))
    return a


def validate_sample_set(spec: KernelSpec, s: SampleSet) -> np.ndarray:
    """Check every point of s against the kernel's domain; return them as an array.

    Brownian motion additionally requires strictly positive points: the point
    0 makes every Gram containing it singular (its kernel section vanishes).
    """
    a = check_domain(spec, s.points)
    if spec.kind == "brownian" and s.points[0] <= 0:
        raise DomainError("brownian sample sets require strictly positive points")
    return a


def binom(x: int, n: int) -> int:
    """Exact binomial coefficient C(x, n); returns 0 when n > x.

    Arbitrary-precision integer arithmetic, so no overflow is possible and no
    capacity ceiling applies here (the Pascal matrix builders enforce their
    own documented order ceiling).
    """
    x, n = check_int("x", x, 0, error=DomainError), check_int("n", n, 0, error=DomainError)
    if n > x:
        return 0
    return math.comb(x, n)


def _sinc_of_distance(d: np.ndarray) -> np.ndarray:
    """sin(pi d)/(pi d) elementwise for distances d >= 0, conventions as sinc_pi.

    d is used as scratch space, so a large block needs one more array of
    its size and a few boolean masks.
    """
    small = d < SINC_GUARD
    zeros = ~small & (d == np.floor(d))
    taylor = 1.0 - (np.pi * d[small]) ** 2 / 6.0
    d *= np.pi
    values = np.sin(d)
    # No quotient is formed below the guard, so no 0/0 at zero distance.
    np.divide(values, d, out=values, where=~small)
    values[small] = taylor
    values[zeros] = 0.0
    return values


def sinc_pi(x: float) -> float:
    """sin(pi x)/(pi x) with the removable singularity filled in near 0.

    Nonzero integer arguments return 0.0 exactly: those are true zeros of
    the function, and library sin(pi*k) would leave ~1e-16 residue that a
    Gram over integer nodes should not carry.  This is the sinc kernel at
    (x, 0), so x must be finite.
    """
    return eval_kernel(KernelSpec.sinc(), x, 0.0)


def kernel_values(spec: KernelSpec, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """K(s, t) elementwise over broadcast arrays of points, without domain checks.

    s and t are checked points.  Shapes (n, 1) and (1, m) give the
    n x m block, equal shapes the pairs (s[i], t[i]).  The result is a new
    array that the caller may overwrite.
    """
    if spec.kind == "brownian":
        return np.minimum(s, t)
    if spec.kind == "bridge":
        values = np.minimum(s, t)
        values -= s * t
        return values
    if spec.kind == "sinc":
        d = s - t
        return _sinc_of_distance(np.abs(d, out=d))
    if spec.kind == "tabulated":
        return spec.table.lookup(s, t)
    top = s + t
    if top.size and top.max() > BINOMIAL_CAPACITY:
        raise CapacityError(
            f"binomial kernel argument sum x + y = {top.max():.0f} exceeds the "
            f"documented capacity {BINOMIAL_CAPACITY}"
        )
    # The int64 -> object cast yields Python ints, so every C(x+y, x) is exact.
    comb = np.frompyfunc(math.comb, 2, 1)
    return comb(top.astype(np.int64).astype(object), s.astype(np.int64).astype(object))


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """The block K(xs[i], ys[j]) over two sequences of points.

    float64 for the continuous and tabulated kernels, an object array of
    exact Python ints for the binomial kernel.  Both point sequences are
    checked against the kernel's domain first, xs before ys.
    """
    a = check_domain(spec, xs)
    b = check_domain(spec, ys)
    return kernel_values(spec, a[:, None], b[None, :])


def eval_kernel(spec: KernelSpec, s: float, t: float):
    """Evaluate K(s, t). Exact integer for the binomial kernel, float otherwise.

    The 1x1 block of kernel_matrix, so symmetric in (s, t) bit-for-bit;
    out-of-domain arguments raise DomainError.
    """
    return kernel_matrix(spec, (s,), (t,)).item()

