"""Exact Gaussian-rational scalars and exact linear algebra.

Every quantity in this package is a complex number (a + b i) / d with
Python ints a, b, d, d > 0 and gcd(a, b, d) = 1, so equal values have equal
fields.  Most structure constants are Gaussian integers (d = 1); the
arithmetic skips the gcd there, and the imaginary products for real
operands; a factor of +-1 (most of them) gives the other factor or its
negation, and a zero operand of +, - or * gives ZERO, the other or -other.
Floating point is never used.  All linear algebra is one sparse Gaussian
elimination, RowReducer, on dict-rows, keeping only pivot rows: matrices
have a few hundred rows/columns at most but are sparse.  Kernels are
sparse dicts, and sparse_nullspace stops reading rows at full rank; the
one small inverse is a reduction of [A | 1].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Rat = Union[int, str, Fraction]

_new = object.__new__


def _mk(a: int, b: int, d: int) -> "ExactScalar":
    # (a, b, d) must already be in normal form
    s = _new(ExactScalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _norm(a: int, b: int, d: int) -> "ExactScalar":
    # d > 0; divide out gcd(a, b, d)
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _mk(a, b, d)


def _add(x: "ExactScalar", c: int, e: int, f: int) -> "ExactScalar":
    # x + (c + e i) / f
    d = x._d
    if d == f:
        a, b = x._a + c, x._b + e
        if d == 1:
            return _mk(a, b, 1)
    else:
        a, b = x._a * f + c * d, x._b * f + e * d
        d *= f
    return _norm(a, b, d)


class ExactScalar:
    """A complex number (a + b i) / d in lowest terms.

    Construct it from rational real and imaginary parts (int, str or
    Fraction).  The value is immutable: ``re`` and ``im`` are read-only
    Fraction views, and the integer fields are private, as in Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: Rat = 0, im: Rat = 0) -> "ExactScalar":
        if re.__class__ is int and im.__class__ is int:
            return _mk(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        return _mk(re.numerator * (d // p), im.numerator * (d // q), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction, str)):
            return ExactScalar(other)
        raise TypeError(f"cannot treat {other!r} as an exact scalar")

    def __add__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return other
        return _add(self, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _mk(-self._a, -self._b, self._d)

    def __sub__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return _mk(-other._a, -other._b, other._d)
        return _add(self, -other._a, -other._b, other._d)

    def __rsub__(self, other: object) -> "ExactScalar":
        return _coerce(other) - self

    def __mul__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not (a or b) or not (c or e):
            return ZERO
        # a factor of +-1 returns the other one, or its negation
        if f == 1 and not e and (c == 1 or c == -1):
            return self if c == 1 else _mk(-a, -b, d)
        if d == 1 and not b and (a == 1 or a == -1):
            return other if a == 1 else _mk(-c, -e, f)
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        d *= f
        if d == 1:
            return _mk(a, b, 1)
        return _norm(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if e:
            # (a + b i)(c - e i) / (c^2 + e^2)
            a, b = (a * c + b * e) * f, (b * c - a * e) * f
            n = c * c + e * e
        elif c:
            if c < 0:
                a, b, c = -a, -b, -c
            a, b, n = a * f, b * f, c
        else:
            raise ZeroDivisionError("division by zero exact scalar")
        return _norm(a, b, self._d * n)

    def __rtruediv__(self, other: object) -> "ExactScalar":
        return _coerce(other) / self

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExactScalar:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    # -- I/O ---------------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{re}{sign}{imtxt}"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


_coerce = ExactScalar._coerce

ZERO = _mk(0, 0, 1)
ONE = _mk(1, 0, 1)
I = _mk(0, 1, 1)

scal = ExactScalar  # the shorthand used all over the tests


def acc(d: dict, key, c: ExactScalar) -> None:
    """d[key] += c for a sparse dict of scalars; zero sums drop the key."""
    w = d.get(key)
    if w is not None:
        c = w + c
    if c._a or c._b:
        d[key] = c
    else:
        d.pop(key, None)


def axpy(out: dict, coef: ExactScalar, items) -> None:
    """out += coef * src in place, with src given as (key, scalar) items
    (a dict's items() or a frozen tuple); entries that cancel drop out."""
    unit = coef._d == 1 and coef._a == 1 and not coef._b
    for k, v in items:
        t = v if unit else v * coef
        w = out.get(k)
        if w is not None:
            t = _add(w, t._a, t._b, t._d)
        if t._a or t._b:
            out[k] = t
        elif w is not None:
            del out[k]


def iaxpy(out: dict, coef: int, items) -> None:
    """axpy over int coefficients, as the bracket tables hold them."""
    for k, v in items:
        if t := out.get(k, 0) + coef * v:
            out[k] = t
        else:
            out.pop(k, None)


# ---------------------------------------------------------------------------
# sparse row reduction: the one elimination routine
#
# Rows arrive one at a time as {column_index: ExactScalar}.  We keep a row
# echelon form: pivots maps a column index to a reduced row whose leading
# entry in that column is 1 and which has zeros in every other pivot column.
# Only pivot rows are stored, so memory is O(rank * row size).
# ---------------------------------------------------------------------------


class RowReducer:
    """Incremental reduced row echelon form over exact scalars."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, ExactScalar]] = {}

    def add_row(self, row: dict[int, ExactScalar]) -> None:
        row = {c: v for c, v in row.items() if v._a or v._b}
        if not row:
            return
        if min(row) < 0 or max(row) >= self.ncols:
            raise IndexError(f"columns {min(row)}..{max(row)} out of range "
                             f"(ncols={self.ncols})")
        pivots = self.pivots
        # each pivot row vanishes in every other pivot column, so one pass
        # over the pivot columns the row starts with clears all of them
        for c0, coef in [(c, v) for c, v in row.items() if c in pivots]:
            axpy(row, -coef, pivots[c0].items())
        if not row:
            return
        lead = min(row)
        inv = ONE / row[lead]
        newrow = {c: v * inv for c, v in row.items()}
        # clear this column from existing pivot rows
        for prow in pivots.values():
            e = prow.get(lead)
            if e is not None:
                axpy(prow, -e, newrow.items())
        pivots[lead] = newrow

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self) -> list[dict[int, ExactScalar]]:
        """Kernel basis: for each free column f, e_f minus the f-entries of
        the pivot rows (placed at their pivot columns)."""
        basis = []
        for f in range(self.ncols):
            if f in self.pivots:
                continue
            vec = {f: ONE}
            for pc, prow in self.pivots.items():
                e = prow.get(f)
                if e is not None:
                    vec[pc] = -e
            basis.append(vec)
        return basis


def sparse_nullspace(rows: Iterable[dict[int, ExactScalar]],
                     ncols: int) -> list[dict[int, ExactScalar]]:
    """Kernel basis of the rows; at full rank the kernel is already empty,
    so no further row is read."""
    red = RowReducer(ncols)
    for r in rows:
        red.add_row(r)
        if len(red.pivots) == ncols:
            break
    return red.nullspace()


def inverse(rows: Sequence[Sequence[object]]) -> list[list[ExactScalar]]:
    """Inverse of a square matrix, by reducing [A | 1]; ValueError if A is
    singular, since a pivot then lands in the identity block."""
    n = len(rows)
    red = RowReducer(2 * n)
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("not square")
        row = {j: _coerce(x) for j, x in enumerate(r)}
        row[n + i] = ONE
        red.add_row(row)
    if any(c >= n for c in red.pivots):
        raise ValueError("matrix is singular")
    return [[red.pivots[i].get(n + j, ZERO) for j in range(n)]
            for i in range(n)]
