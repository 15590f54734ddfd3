"""Prefix consistency of the bordered Cholesky factor and the one-factor probes.

The nested-prefix probes read every prefix off a single factorization, which
is exact only if the factor of a[:n, :n] is the leading block of the factor
of a, and a singular a fails where its first failing prefix does.  These
properties pin that down on random Brownian, bridge and jittered-sinc Grams,
and compare both probe sequences with a per-prefix solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsampling import (
    KernelSpec,
    SampleSet,
    SingularMatrixError,
    build_gram,
    cholesky_factor,
    cholesky_solve,
    membership_probe,
    projection_norm_sequence,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
JITTER = 0.2
REL_TOL = 1e-12


def _points(kind: str, offsets) -> list[float]:
    """k + d_k for k = 1..n with |d_k| <= JITTER, scaled into the kernel's domain."""
    n = len(offsets)
    grid = np.arange(1, n + 1) + np.asarray(offsets)
    if kind == "brownian":
        grid = grid / n
    elif kind == "bridge":
        grid = grid / (n + 1)
    return grid.tolist()


@st.composite
def probe_cases(draw, max_size=36):
    kind = draw(st.sampled_from(("brownian", "bridge", "sinc")))
    n = draw(st.integers(1, max_size))
    offsets = draw(st.lists(st.floats(-JITTER, JITTER), min_size=n, max_size=n))
    return KernelSpec(kind), SampleSet.of(_points(kind, offsets))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _close(got, want):
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(g - w) <= REL_TOL * abs(w), f"entry {n}: {g!r} vs {w!r}"


@PROPERTY
@given(probe_cases())
def test_prefix_factor_is_leading_block(case):
    spec, s = case
    a = build_gram(spec, s).entries
    full = cholesky_factor(a)
    for n in range(1, len(s) + 1):
        assert _bits(cholesky_factor(np.array(a[:n, :n]))) == _bits(full[:n, :n]), n


@PROPERTY
@given(probe_cases(), st.data())
def test_singular_pivot_is_first_failing_prefix(case, data):
    """A near-duplicate of point m fails at pivot m + 1, as does every prefix past it."""
    spec, s = case
    pts = list(s.points)
    m = data.draw(st.integers(0, len(pts) - 1))
    pts.insert(m + 1, pts[m] + 1e-13 * max(1.0, abs(pts[m])))
    a = build_gram(spec, SampleSet.of(pts)).entries
    with pytest.raises(SingularMatrixError) as info:
        cholesky_factor(a)
    j = info.value.pivot_index
    assert j == m + 1
    for n in range(1, len(pts) + 1):
        prefix = np.array(a[:n, :n])
        if n <= j:
            cholesky_factor(prefix)
        else:
            with pytest.raises(SingularMatrixError) as info:
                cholesky_factor(prefix)
            assert info.value.pivot_index == j, n


@PROPERTY
@given(probe_cases(), st.data())
def test_projection_sequence_matches_per_prefix_solves(case, data):
    spec, s = case
    n_max = len(s)
    x = data.draw(st.integers(0, n_max - 1))
    norms = projection_norm_sequence(spec, s, x, n_max)
    a = build_gram(spec, s).entries
    want = []
    for n in range(1, n_max + 1):
        if n <= x:
            want.append(0.0)
            continue
        e = np.zeros(n)
        e[x] = 1.0
        want.append(float(cholesky_solve(a[:n, :n], e)[x]))
    assert norms[:x] == [0.0] * x
    _close(norms, want)
    assert all(q >= p for p, q in zip(norms, norms[1:]))


@PROPERTY
@given(probe_cases(), st.data())
def test_membership_sequence_matches_per_prefix_solves(case, data):
    spec, s = case
    n_max = len(s)
    f = np.asarray(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n_max, max_size=n_max)))
    seq = membership_probe(spec, s, f, n_max)
    a = build_gram(spec, s).entries
    want = [float(f[:n] @ cholesky_solve(a[:n, :n], f[:n])) for n in range(1, n_max + 1)]
    _close(seq, want)
    assert all(q >= p for p, q in zip(seq, seq[1:]))
