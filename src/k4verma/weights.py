"""Finite dimensional modules over the zero-degree part of the annihilation
algebra.

The degree-zero subalgebra is sl(2) (+) sl(2) (+) C t (+) C C.  An
irreducible module F(m, n, mu_t, mu_C) is realised on bihomogeneous
polynomials x1^a x2^(m-a) y1^b y2^(n-b); the basis key is (a, b).  The x
copy of sl(2) acts through e_x, f_x, h_x and the y copy through the y
triple; t and C act by the scalars mu_t and mu_C.

The six quadratic monomials xi_ij sit inside sl(2)+sl(2) via

  h_x = -i xi_12 + i xi_34          h_y = -i xi_12 - i xi_34
  e_x = (-xi_13 - xi_24 - i xi_14 + i xi_23)/2
  e_y = (-xi_13 + xi_24 + i xi_14 + i xi_23)/2
  f_x = ( xi_13 + xi_24 - i xi_14 + i xi_23)/2
  f_y = ( xi_13 - xi_24 + i xi_14 + i xi_23)/2

SL2_IN_XI holds that table, the one copy in the package.  The inverse
change of basis is computed once at import time by inverting its 6x6
matrix.  act_g0 returns the frozen image of one F-monomial, cached for
each xi_ij; under t and C it is mu * monomial, the one place mu is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .annihilation import CKEY, Key
from .exact import ExactScalar, I, ONE, ZERO, acc, axpy, inverse, scal
from .grassmann import PAIRS, indices_of

MonKey = tuple[int, int]            # (number of x1 factors, number of y1 factors)
Vector = dict[MonKey, ExactScalar]


class Weight(NamedTuple):
    m: int
    n: int
    mu_t: ExactScalar
    mu_C: ExactScalar

    def keys(self) -> list[MonKey]:
        return [(a, b) for a in range(self.m + 1) for b in range(self.n + 1)]

    def __str__(self) -> str:
        return f"({self.m},{self.n},{self.mu_t},{self.mu_C})"


def weight(m: int, n: int, mu_t, mu_C) -> Weight:
    if not (isinstance(m, int) and isinstance(n, int)) or m < 0 or n < 0:
        raise ValueError("sl2 labels must be nonnegative integers")
    return Weight(m, n, ExactScalar._coerce(mu_t), ExactScalar._coerce(mu_C))


# each sl2 operator as (da, db, coefficient): it sends (a, b) to
# (a + da, b + db) times coefficient(a, b, m, n), which is zero wherever
# the shifted monomial would leave F
_SL2_MOVES = {
    "h_x": (0, 0, lambda a, b, m, n: 2 * a - m),
    "e_x": (1, 0, lambda a, b, m, n: m - a),
    "f_x": (-1, 0, lambda a, b, m, n: a),
    "h_y": (0, 0, lambda a, b, m, n: 2 * b - n),
    "e_y": (0, 1, lambda a, b, m, n: n - b),
    "f_y": (0, -1, lambda a, b, m, n: b),
}
SL2_OPS = tuple(_SL2_MOVES)


def apply_sl2(op: str, wt: Weight, vec: Vector) -> Vector:
    if op not in _SL2_MOVES:
        raise ValueError(f"unknown sl2 operator {op!r}")
    da, db, coeff = _SL2_MOVES[op]
    out: Vector = {}
    for (a, b), c in vec.items():
        k = coeff(a, b, wt.m, wt.n)
        if k:
            acc(out, (a + da, b + db), c * k)
    return out


_HALF = scal(Fraction(1, 2))
_IH = I * _HALF

# SL2_IN_XI[op] = {pair: coefficient}: each sl2 operator in the xi_ij basis
SL2_IN_XI: dict[str, dict[tuple[int, int], ExactScalar]] = {
    "h_x": {(1, 2): -I, (3, 4): I},
    "e_x": {(1, 3): -_HALF, (2, 4): -_HALF, (1, 4): -_IH, (2, 3): _IH},
    "f_x": {(1, 3): _HALF, (2, 4): _HALF, (1, 4): -_IH, (2, 3): _IH},
    "h_y": {(1, 2): -I, (3, 4): -I},
    "e_y": {(1, 3): -_HALF, (2, 4): _HALF, (1, 4): _IH, (2, 3): _IH},
    "f_y": {(1, 3): _HALF, (2, 4): -_HALF, (1, 4): _IH, (2, 3): _IH},
}
_XI_IN_SL2 = inverse([[SL2_IN_XI[op].get(indices_of(pm), ZERO)
                       for pm in PAIRS] for op in SL2_OPS])

# XI_COMBO[pm] = [(coefficient, sl2 op name), ...] for each pair mask pm;
# row j of the inverse expresses xi_{PAIRS[j]} in the sl2 basis
XI_COMBO: dict[int, list[tuple[ExactScalar, str]]] = {
    pm: [(c, SL2_OPS[k]) for k, c in enumerate(row) if not c.is_zero()]
    for pm, row in zip(PAIRS, _XI_IN_SL2)}


@lru_cache(maxsize=None)
def _xi_image(mask: int, m: int, n: int, mon: MonKey) -> tuple:
    """xi_{pair mask} on one monomial of F(m, n), frozen; mu plays no part."""
    wt = weight(m, n, ZERO, ZERO)
    out: Vector = {}
    for c, op in XI_COMBO[mask]:
        axpy(out, c, apply_sl2(op, wt, {mon: ONE}).items())
    return tuple(out.items())


def act_g0(key: Key, wt: Weight, mon: MonKey) -> tuple:
    """Image of one F-monomial under a degree-zero basis key, frozen as
    ((monomial, coefficient), ...); t and C act by mu_t and mu_C, or () at 0."""
    if key[0] == 0 and key[1] in XI_COMBO:
        return _xi_image(key[1], wt.m, wt.n, mon)
    if key == CKEY or key == (1, 0):
        mu = wt.mu_C if key == CKEY else wt.mu_t
        return () if mu.is_zero() else ((mon, mu),)
    raise ValueError(f"{key} is not a degree-zero basis key")


def lowering_word(key: MonKey, wt: Weight) -> tuple[ExactScalar, tuple[int, int]]:
    """Monomial (a,b) as coeff * f_x^px f_y^py applied to the highest vector."""
    a, b = key
    coeff = scal(Fraction(factorial(a) * factorial(b),
                          factorial(wt.m) * factorial(wt.n)))
    return coeff, (wt.m - a, wt.n - b)
