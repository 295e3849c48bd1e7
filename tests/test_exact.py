import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from k4verma.exact import (
    ExactMatrix, ExactScalar, I, ONE, RowReducer, ZERO,
    normalize_leading, scal, sparse_nullspace,
)


def test_gaussian_arithmetic_frozen():
    assert (ONE + I) * (ONE - I) == scal(2)
    assert I * I == scal(-1)
    assert scal(1, 2) / scal(1, 2) == ONE
    assert scal("1/2") + scal("1/2") == ONE
    assert scal(3, -4).conjugate() == scal(3, 4)


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
    assert ExactScalar.from_json(s.to_json()) == s
    assert s.to_json() == {"re": "-5/7", "im": "2/3"}


def test_identity_has_empty_kernel():
    assert ExactMatrix.identity(4).nullspace() == []


def test_kernel_frozen_example():
    m = ExactMatrix([[1, 1, 0], [0, 1, 1]])
    ker = m.nullspace()
    assert ker == [(ONE, scal(-1), ONE)]


def test_kernel_leading_one_normalization():
    vec = normalize_leading([ZERO, scal(0, 2), scal(4)])
    assert vec == [ZERO, ONE, scal(0, -2)]


scalars = st.builds(
    lambda a, b, c, d: scal(Fraction(a, b), Fraction(c, d)),
    st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 4))


@given(st.lists(st.lists(scalars, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_nullity_and_kernel_membership(rows):
    m = ExactMatrix(rows)
    ker = m.nullspace()
    assert m.rank() + len(ker) == m.ncols
    for v in ker:
        assert all(x.is_zero() for x in m.mat_vec(v))
    # rank does not depend on the order rows are fed in
    red = RowReducer(m.ncols)
    for r in reversed(rows):
        red.add_row({j: ExactScalar._coerce(x) for j, x in enumerate(r)})
    assert red.rank == m.rank()


@given(st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_invariant_under_column_reversal(rows):
    m = ExactMatrix(rows)
    mrev = ExactMatrix([list(reversed(r)) for r in rows])
    assert m.rank() == mrev.rank()


def test_late_pivot_column_is_eliminated():
    # a fresh pivot row must not keep entries at previously pivoted columns,
    # or the back-substitution in nullspace() reads garbage
    rows = [{1: ONE, 2: ONE}, {0: ONE, 1: ONE}]
    ker = sparse_nullspace(rows, 3)
    assert ker == [(ONE, scal(-1), ONE)]


def test_sparse_and_dense_agree():
    rows = [[1, 2, 3, 0], [0, 0, 1, 1], [1, 2, 4, 1]]
    dense = ExactMatrix(rows).nullspace()
    sparse = sparse_nullspace(
        ({j: scal(x) for j, x in enumerate(r) if x} for r in rows), 4)
    assert dense == sparse
    assert len(dense) == 2


def test_inverse():
    m = ExactMatrix([[1, 1], [0, I]])
    inv = m.inverse()
    e0 = m.mat_vec([ONE, ZERO])
    e1 = m.mat_vec([ZERO, ONE])
    assert inv.mat_vec(e0) == [ONE, ZERO]
    assert inv.mat_vec(e1) == [ZERO, ONE]
    with pytest.raises(ValueError):
        ExactMatrix([[1, 1], [1, 1]]).inverse()


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


@given(pairs)
def test_negation_conjugate_and_parts(x):
    s = scal(*x)
    _assert_normal(s)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == x
    assert ((-s).re, (-s).im) == (-x[0], -x[1])
    assert (s.conjugate().re, s.conjugate().im) == (x[0], -x[1])
    _assert_normal(-s)
    _assert_normal(s.conjugate())
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
    assert ExactScalar.from_json(js) == s


def test_scalars_are_immutable():
    s = scal(1, 2)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, Fraction(3))
    assert s == scal(1, 2)
