"""The block kernel evaluator kernel_matrix and its exact conventions.

Every Gram, interpolant row, Parseval sum and scalar kernel value comes from
kernel_matrix (through kernel_values), so these properties pin the
conventions on the block route itself: exact sinc zeros and the Taylor
guard, bit-symmetric Grams for every kernel, agreement with the scalar
eval_kernel bit for bit, the binomial kernel as C(x+y, x) with its capacity
checked first, and domain errors that read the same on both routes.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdsampling import (
    CapacityError,
    DomainError,
    KernelSpec,
    SampleSet,
    TabulatedTable,
    ValidationError,
    build_gram,
    check_domain,
    eval_kernel,
    kernel_matrix,
    parseval_defect,
    synthesis,
)
from pdsampling.kernels import BINOMIAL_CAPACITY, SINC_GUARD

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

SINC = KernelSpec.sinc()
BM = KernelSpec.brownian()
BRIDGE = KernelSpec.bridge()
BINOMIAL = KernelSpec.binomial()

TABLE_POINTS = [k * 0.25 for k in range(24)]


def _table_spec() -> KernelSpec:
    """exp(-|s-t|) on k/4, with 0.0 above and -0.0 below the diagonal at (2, 7)."""
    rows = [[math.exp(-abs(s - t)) for t in TABLE_POINTS] for s in TABLE_POINTS]
    rows[2][7], rows[7][2] = 0.0, -0.0
    return KernelSpec.tabulated(TabulatedTable.from_rows(TABLE_POINTS, rows))


TABULATED = _table_spec()


def _bits(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes()


def _same_value(a, b) -> bool:
    if isinstance(a, int) or isinstance(b, int):
        return type(a) is type(b) and a == b
    return _bits([a]) == _bits([b])


def _sorted_unique(values) -> list[float]:
    return sorted(set(values))


@st.composite
def kernel_points(draw, max_size=24):
    """A kernel and a strictly increasing point list inside its domain."""
    kind = draw(st.sampled_from(("brownian", "bridge", "sinc", "binomial", "tabulated")))
    n = draw(st.integers(1, max_size))
    if kind == "brownian":
        pts = draw(st.lists(st.floats(1e-3, 50.0), min_size=n, max_size=n))
        return BM, _sorted_unique(pts)
    if kind == "bridge":
        pts = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=n, max_size=n))
        return BRIDGE, _sorted_unique(pts)
    if kind == "sinc":
        # Half the draws land on a half-integer lattice, where both the exact
        # zeros and the general quotient show up in one Gram.
        if draw(st.booleans()):
            pts = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
        else:
            pts = [k * 0.5 for k in draw(st.lists(st.integers(-600, 600), min_size=n, max_size=n))]
        return SINC, _sorted_unique(pts)
    if kind == "binomial":
        pts = draw(st.lists(st.integers(0, 59), min_size=n, max_size=n))
        return BINOMIAL, [float(p) for p in _sorted_unique(pts)]
    idx = draw(st.lists(st.integers(0, len(TABLE_POINTS) - 1), min_size=n, max_size=n))
    return TABULATED, [TABLE_POINTS[i] for i in _sorted_unique(idx)]


class TestSincConventions:
    @PROPERTY
    @given(
        st.lists(st.integers(-2000, 2000), min_size=2, max_size=30, unique=True),
        st.integers(0, 15),
    )
    def test_integer_offsets_are_exact_zeros(self, ks, frac):
        # A shared dyadic fraction keeps every difference an exact integer.
        pts = [k + frac / 16.0 for k in ks]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = kernel_matrix(SINC, pts, pts)
        off = ~np.eye(len(pts), dtype=bool)
        assert np.all(m[off] == 0.0)
        assert not np.any(np.signbit(m[off]))
        assert np.all(np.diag(m) == 1.0)

    @PROPERTY
    @given(st.floats(0.0, SINC_GUARD, exclude_max=True), st.integers(-1000, 1000))
    def test_taylor_branch_below_guard(self, d, k):
        want = 1.0 - (math.pi * d) ** 2 / 6.0
        m = kernel_matrix(SINC, [0.0, d], [d, 0.0])
        assert m[0, 0] == want and m[1, 1] == want
        # Away from 0 the offset between k and k + d rounds, but whatever it
        # is, an offset below the guard takes the Taylor branch.
        offset = abs(float(k) - (k + d))
        assume(offset < SINC_GUARD)
        got = float(kernel_matrix(SINC, [float(k)], [k + d])[0, 0])
        assert got == 1.0 - (math.pi * offset) ** 2 / 6.0


class TestBlockAgreesWithScalar:
    @PROPERTY
    @given(kernel_points(max_size=12), st.data())
    def test_kernel_matrix_equals_eval_kernel(self, case, data):
        spec, pts = case
        ys = data.draw(st.permutations(pts))
        m = kernel_matrix(spec, pts, ys)
        assert m.shape == (len(pts), len(ys))
        for i, s in enumerate(pts):
            for j, t in enumerate(ys):
                if spec.kind == "binomial":
                    s, t = int(s), int(t)
                assert _same_value(m[i, j], eval_kernel(spec, s, t))

    @PROPERTY
    @given(kernel_points())
    def test_gram_is_bit_symmetric_and_rerun_identical(self, case):
        spec, pts = case
        g = build_gram(spec, SampleSet.of(pts))
        assert _bits(g.entries) == _bits(g.entries.T)
        assert _bits(g.entries) == _bits(build_gram(spec, SampleSet.of(pts)).entries)
        if spec.kind == "binomial":
            exact = np.array(g.exact_entries, dtype=object)
            assert (exact == exact.T).all()
            assert all(type(v) is int for row in g.exact_entries for v in row)

    @PROPERTY
    @given(kernel_points(max_size=16), st.data())
    def test_interpolant_row_is_fsum_of_scalar_products(self, case, data):
        spec, pts = case
        coef = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(pts), max_size=len(pts)))
        f = synthesis(spec, SampleSet.of(pts), coef)
        t = data.draw(st.sampled_from(pts))
        if spec.kind == "binomial":
            want = math.fsum(c * eval_kernel(spec, int(t), int(p)) for c, p in zip(coef, pts))
        else:
            want = math.fsum(c * eval_kernel(spec, t, p) for c, p in zip(coef, pts))
        assert _same_value(f(t), want)
        assert _same_value(f(t), f(t))


class TestDomainMessages:
    BAD = {
        "brownian": (BM, [0.5, 1.0, 2.0], [-0.25, math.inf]),
        "bridge": (BRIDGE, [0.2, 0.4, 0.6], [1.0, 0.0]),
        "sinc": (SINC, [-1.0, 0.5, 3.0], [math.nan, math.inf]),
        "binomial": (BINOMIAL, [0.0, 2.0, 5.0], [2.5, -1.0]),
        "tabulated": (TABULATED, [0.0, 0.5, 1.0], [0.3, 99.0]),
    }

    @PROPERTY
    @given(st.sampled_from(sorted(BAD)), st.integers(0, 3), st.booleans())
    def test_block_raises_the_scalar_message(self, kind, at, in_ys):
        spec, good, (first, second) = self.BAD[kind]
        pts = good[:at] + [first] + good[at:] + [second]
        with pytest.raises(DomainError) as scalar:
            check_domain(spec, first)
        with pytest.raises(DomainError) as block:
            if in_ys:
                kernel_matrix(spec, good, pts)
            else:
                kernel_matrix(spec, pts, good)
        assert str(block.value) == str(scalar.value)
        if kind != "binomial":
            with pytest.raises(DomainError) as pair:
                eval_kernel(spec, good[0], first)
            assert str(pair.value) == str(scalar.value)

    def test_off_table_point_in_parseval_sum(self):
        with pytest.raises(DomainError, match="not in the tabulated point set"):
            parseval_defect(TABULATED, SampleSet.of([0.0, 0.3]), [0.25])


class TestBinomialBlock:
    def test_vandermonde_against_the_old_sum(self):
        """C(x+y, x) equals sum_n C(x,n) C(y,n) on 0..59 x 0..59."""
        m = kernel_matrix(BINOMIAL, range(60), range(60))
        for x in range(60):
            for y in range(60):
                old = sum(math.comb(x, n) * math.comb(y, n) for n in range(min(x, y) + 1))
                assert type(m[x, y]) is int and m[x, y] == old

    def test_capacity_checked_before_any_coefficient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("math.comb called past the capacity")

        monkeypatch.setattr(math, "comb", refuse)
        with pytest.raises(CapacityError):
            eval_kernel(BINOMIAL, 8000, 8000)
        with pytest.raises(CapacityError):
            kernel_matrix(BINOMIAL, [0.0, 1.0], [0.0, float(BINOMIAL_CAPACITY)])
        with pytest.raises(CapacityError):
            build_gram(BINOMIAL, SampleSet.of([0.0, 5001.0]))

    def test_value_at_capacity_is_exact_and_printable(self):
        half = BINOMIAL_CAPACITY // 2
        v = eval_kernel(BINOMIAL, half, half)
        assert v == math.comb(BINOMIAL_CAPACITY, half)
        assert len(str(v)) < 4300

    def test_gram_past_double_range_is_a_capacity_error(self):
        with pytest.raises(CapacityError):
            build_gram(BINOMIAL, SampleSet.of([0.0, 600.0]))


class TestTabulatedTable:
    def test_signed_zero_pair_is_mirrored(self):
        table = TABULATED.table
        assert math.copysign(1.0, table.values[7][2]) == 1.0
        assert _bits(kernel_matrix(TABULATED, [0.5], [1.75])) == _bits(
            kernel_matrix(TABULATED, [1.75], [0.5])
        )

    def test_first_asymmetric_pair_named(self):
        values = ((1.0, 0.3, 0.1), (0.2, 1.0, 0.5), (0.1, 0.4, 1.0))
        with pytest.raises(ValidationError, match=r"entries \(0,1\) and \(1,0\) differ"):
            TabulatedTable(points=(0.0, 1.0, 2.0), values=values)

    def test_constructor_and_from_rows_agree(self):
        rows = [[2.0, 0.5], [0.5, 3.0]]
        assert TabulatedTable.from_rows([0, 1], rows) == TabulatedTable(
            points=(0.0, 1.0), values=((2.0, 0.5), (0.5, 3.0))
        )
