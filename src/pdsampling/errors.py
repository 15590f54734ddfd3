"""Exception hierarchy shared by all modules.

Two families, matching the CLI exit-code contract: ValidationError (and its
DomainError subclass) for rejected inputs, NumericalError for failures of an
otherwise well-posed computation.  check_int, the one integer validator, and
check_increasing, the one point-sequence validator, live here because every
other module imports this one.
"""

import numpy as np


class ValidationError(Exception):
    """Input rejected before any computation (shape, length, ordering, format)."""


class DomainError(ValidationError):
    """Argument outside a kernel's domain; the message names the constraint."""


class NumericalError(Exception):
    """A well-formed computation failed numerically."""


class SingularMatrixError(NumericalError):
    """SPD factorization hit a non-positive or negligible pivot."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class CapacityError(NumericalError):
    """Requested order exceeds a documented exact-arithmetic ceiling."""


def check_int(name: str, value, lo: int, hi: int | None = None, error=ValidationError) -> int:
    """value as a Python int when it is an int or an integral float in [lo, hi).

    hi = None leaves the range open above.  Anything else raises `error`
    with a message naming the argument, the range and the value; checks
    past a documented ceiling raise CapacityError separately, after this.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and lo <= value and (hi is None or value < hi):
        return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise error(f"{name} must be an integer {bound}, got {value!r}")


def check_increasing(name: str, values) -> np.ndarray:
    """values as a float64 array when non-empty, finite and strictly increasing.

    Anything else raises ValidationError naming the sequence; an ordering
    failure also names the first pair out of order.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} must be finite")
    out_of_order = a[1:] <= a[:-1]
    if out_of_order.any():
        i = int(np.argmax(out_of_order))
        raise ValidationError(
            f"{name} must be strictly increasing; "
            f"points[{i}]={a[i].item()!r} >= points[{i + 1}]={a[i + 1].item()!r}"
        )
    return a
