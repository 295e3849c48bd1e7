"""Exact Gaussian-rational scalars and exact linear algebra.

Every quantity in this package is a complex number (a + b i) / d with
Python ints a, b, d, d > 0 and gcd(a, b, d) = 1, so equal values have equal
fields.  Most structure constants are Gaussian integers (d = 1); the
arithmetic skips the gcd there, and the imaginary products for real
operands.  Floating point is never used.  The linear algebra is plain
Gaussian elimination; matrices stay small (a few hundred rows/columns at
most) but are sparse, so the kernel computation works on dict-rows and only
keeps pivot rows around.
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
        return _add(self, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _mk(-self._a, -self._b, self._d)

    def __sub__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        return _add(self, -other._a, -other._b, other._d)

    def __rsub__(self, other: object) -> "ExactScalar":
        return _coerce(other) - self

    def __mul__(self, other: object) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        d = self._d * other._d
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

    def conjugate(self) -> "ExactScalar":
        return _mk(self._a, -self._b, self._d)

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

    @classmethod
    def from_json(cls, d: dict) -> "ExactScalar":
        return cls(Fraction(d["re"]), Fraction(d["im"]))


_coerce = ExactScalar._coerce

ZERO = _mk(0, 0, 1)
ONE = _mk(1, 0, 1)
I = _mk(0, 1, 1)
HALF = _mk(1, 0, 2)

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


# ---------------------------------------------------------------------------
# sparse kernel computation
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
        row = {c: v for c, v in row.items() if not v.is_zero()}
        for c in sorted(row):
            if c >= self.ncols:
                raise IndexError(f"column {c} out of range (ncols={self.ncols})")
        while row:
            hit = [c for c in row if c in self.pivots]
            if hit:
                # eliminate the earliest pivot column; entries only move right
                c0 = min(hit)
                coef = row[c0]
                for c, v in self.pivots[c0].items():
                    w = row.get(c, ZERO) - coef * v
                    if w.is_zero():
                        row.pop(c, None)
                    else:
                        row[c] = w
                continue
            lead = min(row)
            coef = row[lead]
            newrow = {c: v / coef for c, v in row.items()}
            # clear this column from existing pivot rows
            for prow in self.pivots.values():
                e = prow.get(lead)
                if e is not None:
                    for c, v in newrow.items():
                        w = prow.get(c, ZERO) - e * v
                        if w.is_zero():
                            prow.pop(c, None)
                        else:
                            prow[c] = w
            self.pivots[lead] = newrow
            return

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self) -> list[tuple[ExactScalar, ...]]:
        """Kernel basis; each vector scaled so its first nonzero entry is 1."""
        free = [c for c in range(self.ncols) if c not in self.pivots]
        basis = []
        for f in free:
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for pc, prow in self.pivots.items():
                e = prow.get(f)
                if e is not None:
                    vec[pc] = -e
            basis.append(tuple(normalize_leading(vec)))
        return basis


def normalize_leading(vec: Sequence[ExactScalar]) -> list[ExactScalar]:
    """Scale a vector so its first nonzero entry equals 1 (zero vector kept)."""
    for v in vec:
        if not v.is_zero():
            return [w / v for w in vec]
    return list(vec)


def sparse_nullspace(rows: Iterable[dict[int, ExactScalar]],
                     ncols: int) -> list[tuple[ExactScalar, ...]]:
    red = RowReducer(ncols)
    for r in rows:
        red.add_row(r)
    return red.nullspace()


# ---------------------------------------------------------------------------
# small dense matrices (only used for basis changes and tests)
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Dense matrix of exact scalars.  Rows are lists; nothing fancy."""

    def __init__(self, rows: Sequence[Sequence[object]]):
        self.rows = [[ExactScalar._coerce(x) for x in r] for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def mat_vec(self, vec: Sequence[ExactScalar]) -> list[ExactScalar]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum((r[j] * vec[j] for j in range(self.ncols)), ZERO)
                for r in self.rows]

    def rank(self) -> int:
        red = RowReducer(self.ncols)
        for r in self.rows:
            red.add_row({j: v for j, v in enumerate(r) if not v.is_zero()})
        return red.rank

    def nullspace(self) -> list[tuple[ExactScalar, ...]]:
        return sparse_nullspace(
            ({j: v for j, v in enumerate(r) if not v.is_zero()} for r in self.rows),
            self.ncols)

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse; raises ValueError if singular."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        a = [list(r) for r in self.rows]
        inv = [list(r) for r in ExactMatrix.identity(n).rows]
        for col in range(n):
            pr = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pr is None:
                raise ValueError("matrix is singular")
            a[col], a[pr] = a[pr], a[col]
            inv[col], inv[pr] = inv[pr], inv[col]
            d = a[col][col]
            a[col] = [x / d for x in a[col]]
            inv[col] = [x / d for x in inv[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return ExactMatrix(inv)

    def __repr__(self) -> str:
        return "ExactMatrix([" + ", ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self.rows) + "])"
