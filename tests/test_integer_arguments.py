"""One contract for every public integer argument.

An integral float gives the same result as the int.  A fractional value,
a negative one and one past the argument's range raise the entry point's
documented class: DomainError for binom, CapacityError past a capacity
ceiling, ValidationError otherwise.
"""

import numpy as np
import pytest

from pdsampling import (
    CapacityError,
    DomainError,
    KernelSpec,
    PathEnsemble,
    SampleSet,
    ValidationError,
    binom,
    binomial_gram_inverse_exact,
    binomial_projection_norm_closed,
    bridge_delta_norm_closed,
    brownian_delta_norm_closed,
    haar_antiderivative_matrix,
    membership_probe,
    pascal_inverse,
    pascal_lower,
    probe_report,
    projection_norm_sequence,
    simulate_bridge,
    simulate_brownian,
)
from pdsampling.simulate import MAX_PATHS

BM = KernelSpec.brownian()
V = SampleSet.of([0.5, 1.0, 1.5, 2.5, 3.0, 4.0])
BRIDGE_V = SampleSet.of([0.1, 0.3, 0.5, 0.7, 0.9])
F = [0.5, 1.0, 1.0, 1.5, 2.0, 2.0]
GRID = np.linspace(0.0, 1.0, 9)

# id -> (call taking the integer argument, a valid int, a value past the
# argument's range, the class that value raises); -1 and 2.5 raise
# DomainError for binom and ValidationError for every other entry point.
CASES = {
    "binom-x": (lambda k: binom(k, 2), 5, None, None),
    "binom-n": (lambda k: binom(6, k), 2, None, None),
    "pascal_lower": (pascal_lower, 60, 61, CapacityError),
    "pascal_inverse": (pascal_inverse, 60, 61, CapacityError),
    "binomial_gram_inverse_exact": (binomial_gram_inverse_exact, 60, 61, CapacityError),
    "projection_norm_sequence-x_index": (
        lambda k: projection_norm_sequence(BM, V, k, 5), 2, 5, ValidationError),
    "projection_norm_sequence-n_max": (
        lambda k: projection_norm_sequence(BM, V, 1, k), 4, 7, ValidationError),
    "probe_report-x_index": (lambda k: probe_report(BM, V, k), 2, 6, ValidationError),
    "probe_report-n_max": (lambda k: probe_report(BM, V, 1, k), 5, 7, ValidationError),
    "membership_probe-n_max": (lambda k: membership_probe(BM, V, F, k), 4, 7, ValidationError),
    "brownian_delta_norm_closed": (
        lambda k: brownian_delta_norm_closed(V, k), 2, 6, ValidationError),
    "bridge_delta_norm_closed": (
        lambda k: bridge_delta_norm_closed(BRIDGE_V, k), 2, 5, ValidationError),
    "binomial_projection_norm_closed-x": (
        lambda k: binomial_projection_norm_closed(k, 9), 3, 10, ValidationError),
    "binomial_projection_norm_closed-n": (
        lambda k: binomial_projection_norm_closed(3, k), 9, 2, ValidationError),
    "simulate_brownian-n_paths": (
        lambda k: simulate_brownian(GRID, k, 3, 1), 5, MAX_PATHS + 1, CapacityError),
    "simulate_brownian-basis_depth": (
        lambda k: simulate_brownian(GRID, 5, k, 1), 3, 24, CapacityError),
    "simulate_brownian-seed": (lambda k: simulate_brownian(GRID, 5, 3, k), 1, None, None),
    "simulate_bridge-n_paths": (
        lambda k: simulate_bridge(GRID, k, 3, 1), 5, MAX_PATHS + 1, CapacityError),
    "simulate_bridge-basis_depth": (
        lambda k: simulate_bridge(GRID, 5, k, 1), 3, 24, CapacityError),
    "simulate_bridge-seed": (lambda k: simulate_bridge(GRID, 5, 3, k), 1, None, None),
    "SampleSet.prefix": (lambda k: V.prefix(k), 2, 7, ValidationError),
    "haar_antiderivative_matrix": (
        lambda k: haar_antiderivative_matrix(GRID, k), 3, 24, CapacityError),
}


def _same(a, b):
    if isinstance(a, PathEnsemble):
        return (
            a.paths.tobytes() == b.paths.tobytes()
            and (a.time_grid, a.seed, a.basis_depth, a.kernel_kind)
            == (b.time_grid, b.seed, b.basis_depth, b.kernel_kind)
            and type(b.seed) is int
            and type(b.basis_depth) is int
        )
    if isinstance(a, np.ndarray) and a.dtype == object:
        # tobytes() of an object array holds pointers, not values.
        return (
            b.dtype == object
            and a.tolist() == b.tolist()
            and list(map(type, a.flat)) == list(map(type, b.flat))
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_argument_contract(case, monkeypatch):
    call, good, beyond, beyond_error = CASES[case]
    assert _same(call(good), call(float(good)))
    bad_class = DomainError if case.startswith("binom-") else ValidationError
    for bad in (2.5, -1):
        with pytest.raises(bad_class):
            call(bad)
    if beyond is None:
        return

    # A value past a capacity ceiling must be refused before it allocates.
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past a capacity check")

    monkeypatch.setattr(np, "clip", refuse)
    monkeypatch.setattr(np, "column_stack", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    with pytest.raises(beyond_error):
        call(beyond)
