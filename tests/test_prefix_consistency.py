"""Prefix consistency of the blocked Cholesky factor and the one-factor probes.

The nested-prefix probes read every prefix off a single factorization, which
is exact only if the factor of a[:n, :n] is the leading block of the factor
of a, and a singular a fails where its first failing prefix does.  The factor
works in 32-row blocks at fixed boundaries, the last one padded with identity
rows, so every BLAS call for a block has one shape whatever the order.  The
properties pin this down on random Brownian, bridge and jittered-sinc Grams
and compare both probe sequences with a per-prefix solve; the deterministic
tests below cross several block boundaries (n = 31, 32, 33, 64, 65, ...) and
put singular pivots past the first block.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

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
from pdsampling.gram import PIVOT_FLOOR, _factor_prefix

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


def _assert_prefix_handed_back(a: np.ndarray) -> None:
    """_factor_prefix gives cholesky_factor's error and the factor of a[:j, :j]."""
    with pytest.raises(SingularMatrixError) as info:
        cholesky_factor(a)
    j = info.value.pivot_index
    lower, error = _factor_prefix(a)
    assert type(error) is SingularMatrixError
    assert (str(error), error.pivot_index) == (str(info.value), j)
    assert lower.shape == (j, j)
    assert _bits(lower) == _bits(cholesky_factor(np.array(a[:j, :j])))


@PROPERTY
@given(probe_cases(max_size=70), st.data())
def test_failed_pass_hands_back_the_longest_prefix_factor(case, data):
    spec, s = case
    pts = list(s.points)
    m = data.draw(st.integers(0, len(pts) - 1))
    pts.insert(m + 1, pts[m] + 1e-13 * max(1.0, abs(pts[m])))
    a = build_gram(spec, SampleSet.of(pts)).entries
    _assert_prefix_handed_back(a)
    full, error = _factor_prefix(a[: m + 1, : m + 1])
    assert error is None
    assert _bits(full) == _bits(cholesky_factor(a[: m + 1, : m + 1]))


def test_failed_pass_hands_back_binomial_and_below_floor_prefixes():
    _assert_prefix_handed_back(build_gram(KernelSpec.binomial(), SampleSet.of(range(41))).entries)
    idx = np.arange(70.0)
    for j in (0, 32, 65):
        a = np.minimum.outer(idx, idx) + 1.0
        a[j, j] -= 1.0 - 1e-13
        _assert_prefix_handed_back(a)


def _jittered_gram(kind: str, n: int, seed: int) -> np.ndarray:
    offsets = np.random.default_rng(seed).uniform(-JITTER, JITTER, n)
    return build_gram(KernelSpec(kind), SampleSet.of(_points(kind, offsets))).entries


@pytest.mark.parametrize("kind", ["brownian", "bridge", "sinc"])
def test_every_prefix_across_block_boundaries_is_leading_block(kind):
    a = _jittered_gram(kind, 130, seed=130)
    full = cholesky_factor(a)
    np.testing.assert_allclose(full @ full.T, a, rtol=0, atol=1e-12)
    for n in range(1, 131):
        assert _bits(cholesky_factor(np.array(a[:n, :n]))) == _bits(full[:n, :n]), n


@pytest.mark.parametrize("j", [32, 33, 63, 64, 65, 69])
def test_pivot_below_floor_past_first_block_raises_at_its_index(j):
    """A pivot in (0, PIVOT_FLOOR] that LAPACK potrf alone accepts is rejected at j."""
    # Brownian Gram on 1..70, min(i, j) + 1: unit pivots, exact integer arithmetic.
    idx = np.arange(70.0)
    a = np.minimum.outer(idx, idx) + 1.0
    a[j, j] -= 1.0 - 1e-13
    assert dpotrf(a[: j + 1, : j + 1], lower=1)[1] == 0
    for n in (j + 1, 70):
        with pytest.raises(SingularMatrixError) as info:
            cholesky_factor(a[:n, :n])
        assert info.value.pivot_index == j
        pivot = float(re.search(r"pivot (\S+) at index", str(info.value)).group(1))
        assert 0.0 < pivot <= PIVOT_FLOOR
    cholesky_factor(a[:j, :j])


@pytest.mark.parametrize("kind", ["brownian", "bridge", "sinc"])
@pytest.mark.parametrize("m", [31, 32, 40, 63, 64, 90])
def test_near_duplicate_in_later_block_fails_at_next_index(kind, m):
    offsets = np.random.default_rng(m).uniform(-JITTER, JITTER, 100)
    pts = _points(kind, offsets)
    pts.insert(m + 1, pts[m] + 1e-13 * max(1.0, abs(pts[m])))
    a = build_gram(KernelSpec(kind), SampleSet.of(pts)).entries
    for n in range(m + 2, len(pts) + 1):
        with pytest.raises(SingularMatrixError) as info:
            cholesky_factor(np.array(a[:n, :n]))
        assert info.value.pivot_index == m + 1, n
    cholesky_factor(np.array(a[: m + 1, : m + 1]))


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
