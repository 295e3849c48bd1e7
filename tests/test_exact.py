import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from k4verma.exact import (
    ExactScalar, I, ONE, RowReducer, ZERO, inverse, scal, sparse_nullspace,
)


def test_gaussian_arithmetic_frozen():
    assert (ONE + I) * (ONE - I) == scal(2)
    assert I * I == scal(-1)
    assert scal(1, 2) / scal(1, 2) == ONE
    assert scal("1/2") + scal("1/2") == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_str_forms():
    assert str(scal(2)) == "2"
    assert str(I) == "i"
    assert str(scal(0, Fraction(-3, 2))) == "-3/2i"
    assert str(scal(1, 1)) == "1+i"
    assert str(scal("1/2", "-3/4")) == "1/2-3/4i"


def test_json_roundtrip():
    s = scal("-5/7", "2/3")
    assert s.to_json() == {"re": "-5/7", "im": "2/3"}


def _rows(dense):
    return [{j: ExactScalar._coerce(x) for j, x in enumerate(r)}
            for r in dense]


def _dot(row, vec):
    return sum((row[j] * vec[j] for j in row.keys() & vec.keys()), ZERO)


def _reduce(dense, ncols):
    red = RowReducer(ncols)
    for r in _rows(dense):
        red.add_row(r)
    return red


def test_identity_has_empty_kernel():
    assert sparse_nullspace(_rows([[int(i == j) for j in range(4)]
                                   for i in range(4)]), 4) == []


def test_kernel_frozen_example():
    ker = sparse_nullspace(_rows([[1, 1, 0], [0, 1, 1]]), 3)
    assert ker == [{0: ONE, 1: scal(-1), 2: ONE}]


scalars = st.builds(
    lambda a, b, c, d: scal(Fraction(a, b), Fraction(c, d)),
    st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 4))


@given(st.lists(st.lists(scalars, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_nullity_and_kernel_membership(rows):
    red = _reduce(rows, 4)
    ker = red.nullspace()
    assert red.rank + len(ker) == 4
    for v in ker:
        assert all(_dot(r, v).is_zero() for r in _rows(rows))
    # rank does not depend on the order rows are fed in
    assert _reduce(reversed(rows), 4).rank == red.rank


@given(st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_invariant_under_column_reversal(rows):
    assert _reduce(rows, 3).rank == \
        _reduce([list(reversed(r)) for r in rows], 3).rank


def _counted(rows, taken):
    # yields the rows, first recording each one that is taken
    for r in rows:
        taken.append(r)
        yield r


def test_full_rank_stops_reading_rows():
    # the first three rows have rank 3; the rows after them, one of them
    # out of range, are never taken
    taken = []
    rows = _rows([[1, 0, 0], [1, 1, 0], [0, 1, 1], [5, 6, 7], [0, 0, 0, 9]])
    assert sparse_nullspace(_counted(rows, taken), 3) == []
    assert len(taken) == 3


def test_nonzero_kernel_reads_every_row():
    dense = [[1, 1, 0, 0], [0, 0, 0, 0], [2, 2, 0, 0], [0, 1, 1, 0],
             [1, 2, 1, 0]]
    taken = []
    ker = sparse_nullspace(_counted(_rows(dense), taken), 4)
    assert len(taken) == len(dense)
    assert ker == [{0: ONE, 1: scal(-1), 2: ONE}, {3: ONE}]


def test_late_pivot_column_is_eliminated():
    # a fresh pivot row must not keep entries at previously pivoted columns,
    # or the back-substitution in nullspace() reads garbage
    rows = [{1: ONE, 2: ONE}, {0: ONE, 1: ONE}]
    ker = sparse_nullspace(rows, 3)
    assert ker == [{0: ONE, 1: scal(-1), 2: ONE}]


def test_out_of_range_column_raises():
    with pytest.raises(IndexError):
        RowReducer(2).add_row({2: ONE})


def test_inverse():
    m = [[ONE, ONE], [ZERO, I]]
    inv = inverse(m)
    assert inv == [[ONE, I], [ZERO, -I]]
    for i in range(2):
        for j in range(2):
            assert sum((inv[i][k] * m[k][j] for k in range(2)), ZERO) \
                == (ONE if i == j else ZERO)
    with pytest.raises(ValueError):
        inverse([[1, 1], [1, 1]])


# -- RowReducer against sympy's rref, the independent referee ----------------

sparse_scalars = st.one_of(st.just(ZERO), scalars)


def _from_sympy(x):
    re, im = x.as_real_imag()
    return scal(Fraction(str(re)), Fraction(str(im)))


@given(st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(sparse_scalars, min_size=ncols, max_size=ncols),
    min_size=1, max_size=5)))
def test_reduced_form_matches_sympy_rref(rows):
    ncols = len(rows[0])
    red = _reduce(rows, ncols)
    ref, pivots = sympy.Matrix(
        [[sympy.Rational(x.re.numerator, x.re.denominator)
          + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
          for x in r] for r in rows]).rref()
    assert sorted(red.pivots) == list(pivots)
    for i, p in enumerate(pivots):
        want = {j: _from_sympy(ref[i, j]) for j in range(ncols)}
        assert red.pivots[p] == {j: v for j, v in want.items() if v}


# -- the integer representation against a (Fraction, Fraction) reference ----

rats = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60))
pairs = st.tuples(rats, rats)
# a non-scalar operand: (kind, real value); kind picks int, Fraction or str
plain = st.one_of(
    st.tuples(st.just("int"), st.integers(-40, 40).map(Fraction)),
    st.tuples(st.just("frac"), rats),
    st.tuples(st.just("str"), rats),
)


def _plain_value(kind, q):
    return int(q) if kind == "int" else str(q) if kind == "str" else q


def _ref(op, x, y):
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _assert_normal(s):
    assert s._d > 0
    assert math.gcd(s._a, s._b, s._d) == 1
    assert type(s._a) is int and type(s._b) is int and type(s._d) is int


def _check_op(op, x, y, lhs, rhs):
    if op == "/" and y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            _OPS[op](lhs, rhs)
        return
    got = _OPS[op](lhs, rhs)
    assert isinstance(got, ExactScalar)
    _assert_normal(got)
    assert (got.re, got.im) == _ref(op, x, y)


ops = st.sampled_from("+-*/")


@given(ops, pairs, pairs)
def test_scalar_ops_match_fraction_pairs(op, x, y):
    _check_op(op, x, y, scal(*x), scal(*y))


@given(ops, pairs, plain)
def test_scalar_ops_with_plain_right_operand(op, x, kq):
    y = (kq[1], Fraction(0))
    _check_op(op, x, y, scal(*x), _plain_value(*kq))


@given(ops, plain, pairs)
def test_scalar_ops_with_plain_left_operand(op, kq, y):
    x = (kq[1], Fraction(0))
    _check_op(op, x, y, _plain_value(*kq), scal(*y))


@given(pairs, st.sampled_from([scal(1), scal(-1), ONE]))
def test_unit_factor_gives_the_general_product(x, u):
    # the +-1 shortcut on either side, against the general product
    y = (u.re, u.im)
    _check_op("*", x, y, scal(*x), u)
    _check_op("*", y, x, u, scal(*x))


@given(ops, pairs, st.sampled_from([ZERO, scal(0), 0]), st.booleans())
def test_zero_operand_short_cuts(op, x, zero, zero_left):
    # an exact zero on either side of + - * gives the general result in
    # normal form; a sum with zero, and a product with zero, allocate none
    s = scal(*x)
    z = (Fraction(0), Fraction(0))
    if zero_left:
        _check_op(op, z, x, zero, s)
    else:
        _check_op(op, x, z, s, zero)
    if s:
        assert s + zero is s and zero + s is s and s - zero is s
    assert s * zero is ZERO and zero * s is ZERO


@given(pairs)
def test_negation_conjugate_and_parts(x):
    s = scal(*x)
    _assert_normal(s)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == x
    assert ((-s).re, (-s).im) == (-x[0], -x[1])
    _assert_normal(-s)
    assert s.is_zero() == (x == (0, 0)) == (not s)


@given(pairs, pairs)
def test_equal_scalars_hash_equal(x, y):
    s, t = scal(*x), scal(*y)
    assert (s == t) == (x == y)
    if s == t:
        assert hash(s) == hash(t)
    # the same value reached by other routes
    for u in (scal(str(x[0]), str(x[1])), s + ZERO, s * ONE, -(-s),
              (s * t) / t if not t.is_zero() else s):
        assert u == s and hash(u) == hash(s)


@given(pairs)
def test_json_roundtrip_property(x):
    s = scal(*x)
    js = s.to_json()
    assert js == {"re": str(x[0]), "im": str(x[1])}


def test_scalars_are_immutable():
    s = scal(1, 2)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, Fraction(3))
    assert s == scal(1, 2)
