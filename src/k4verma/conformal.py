"""The conformal superalgebra K_4 and its derived subalgebra K'_4.

K_4 = C[pd] (x) Lambda(4) as a C[pd]-module; a basis element pd^k xi_I is
the pair (k, mask).  Elements are sparse dicts {(k, mask): ExactScalar}.
A lambda-bracket value is a polynomial in lambda with element coefficients,
stored as {lambda_power: element}; `gen_bracket` freezes the bracket of two
basis elements as (lambda_power, items) tuples of ints, which the axiom
checks and the Lie route of `annihilation` contract in place with `iaxpy`;
elements and defects hold ExactScalar.

The bracket of two generating fields is

  [xi_I lambda xi_J] = (|I|-2) pd xi_{I wedge J}
                       + (-1)^{|I|} sum_i (partial_i xi_I)(partial_i xi_J)
                       + lambda (|I|+|J|-4) xi_{I wedge J}

extended by [pd a lambda b] = -lambda [a lambda b] and
[a lambda pd b] = (lambda + pd) [a lambda b].

K'_4 is spanned by all pd^k xi_I with I != {1,2,3,4} together with
pd^l xi_1234 for l >= 1; `in_derived` tests membership.  Every bracket of
K_4 elements lands in K'_4 (checked exhaustively in the tests), which is
what makes the quotient-free story downstream work.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .exact import ExactScalar, iaxpy, scal
from .grassmann import DERIVE, MASK_ALL, STAR, size

Gen = tuple[int, int]               # (pd power, index mask)
Element = dict[Gen, ExactScalar]
LambdaPoly = dict[int, Element]     # lambda power -> element


def parity(mask: int) -> int:
    return size(mask) & 1


def apply_pd(items, times: int = 1):
    """pd^times applied to an element given as (gen, scalar) items."""
    return (((k + times, m), c) for (k, m), c in items)


def poly_is_zero(p: LambdaPoly) -> bool:
    return all(not e for e in p.values())


def _exact(p: dict) -> dict:
    """An int-valued polynomial as ExactScalar, empty powers dropped."""
    return {n: {g: scal(c) for g, c in e.items()} for n, e in p.items() if e}


def _base_bracket(imask: int, jmask: int) -> tuple:
    """[xi_I lambda xi_J] for bare generators, frozen as a hashable tuple."""
    out: dict[int, dict] = {0: {}, 1: {}}
    s, m = STAR[imask][jmask]
    if s:
        iaxpy(out[0], (size(imask) - 2) * s, (((1, m), 1),))
        iaxpy(out[1], (size(imask) + size(jmask) - 4) * s, (((0, m), 1),))
    sgn = (-1) ** size(imask)
    for i in (1, 2, 3, 4):
        si, mi = DERIVE[i][imask]
        sj, mj = DERIVE[i][jmask]
        if si and sj:
            st, mm = STAR[mi][mj]
            if st:
                iaxpy(out[0], sgn * si * sj * st, (((0, mm), 1),))
    return tuple((n, tuple(e.items())) for n, e in out.items() if e)


@lru_cache(maxsize=None)
def gen_bracket(ka: int, imask: int, kb: int, jmask: int) -> tuple:
    """[pd^ka xi_I lambda pd^kb xi_J] as a frozen lambda-polynomial."""
    out: dict[int, dict] = {}
    for n, items in (gen_bracket(0, imask, 0, jmask) if ka or kb
                     else _base_bracket(imask, jmask)):
        # (lambda + pd)^kb, then (-lambda)^ka
        for j in range(kb + 1):
            iaxpy(out.setdefault(n + j + ka, {}), comb(kb, j) * (-1) ** ka,
                  apply_pd(items, kb - j))
    return tuple((n, tuple(e.items())) for n, e in sorted(out.items()) if e)


def in_derived(a: Element) -> bool:
    """True iff the element lies in K'_4 (no bare xi_1234 component)."""
    return all(not (k == 0 and m == MASK_ALL) for (k, m) in a)


def k4_basis(max_dpow: int) -> list[Gen]:
    return [(k, m) for k in range(max_dpow + 1) for m in range(16)]


# -- axiom checks -----------------------------------------------------------

def sesquilinearity_defect(a: Gen, b: Gen) -> tuple[LambdaPoly, LambdaPoly]:
    """Both halves of axiom (iii) as defects (zero iff the axiom holds):
    [pd a lambda b] + lambda [a lambda b] and
    [a lambda pd b] - (lambda + pd) [a lambda b]."""
    ka, im = a
    kb, jm = b
    d1, d2 = {}, {}
    for n, items in gen_bracket(ka + 1, im, kb, jm):
        iaxpy(d1.setdefault(n, {}), 1, items)
    for n, items in gen_bracket(ka, im, kb + 1, jm):
        iaxpy(d2.setdefault(n, {}), 1, items)
    for n, items in gen_bracket(ka, im, kb, jm):
        iaxpy(d1.setdefault(n + 1, {}), 1, items)
        iaxpy(d2.setdefault(n + 1, {}), -1, items)
        iaxpy(d2.setdefault(n, {}), -1, apply_pd(items))
    return _exact(d1), _exact(d2)


def skew_defect(a: Gen, b: Gen) -> LambdaPoly:
    """[a lambda b] + (-1)^{p(a)p(b)} [b_{-lambda-pd} a], expanding each
    (-lambda - pd)^n binomially; zero iff skew holds."""
    sgn = (-1) ** (parity(a[1]) * parity(b[1]))
    out: dict[int, dict] = {}
    for n, items in gen_bracket(*a, *b):
        iaxpy(out.setdefault(n, {}), 1, items)
    for n, items in gen_bracket(*b, *a):
        for j in range(n + 1):
            iaxpy(out.setdefault(j, {}), sgn * comb(n, j) * (-1) ** n,
                  apply_pd(items, n - j))
    return _exact(out)


BiPoly = dict[tuple[int, int], Element]  # (lambda power, mu power) -> element


def jacobi_defect(a: Gen, b: Gen, c: Gen) -> BiPoly:
    """[a l [b m c]] - [[a l b] l+m c] - (-1)^{p(a)p(b)} [b m [a l c]]."""
    out: dict[tuple[int, int], dict] = {}
    for mpow, items in gen_bracket(*b, *c):
        for (kg, gm), cg in items:
            for npow, inner in gen_bracket(*a, kg, gm):
                iaxpy(out.setdefault((npow, mpow), {}), cg, inner)
    for npow, items in gen_bracket(*a, *b):
        for (kg, gm), cg in items:
            for mpow, inner in gen_bracket(kg, gm, *c):
                # substitute the bracket variable by lambda + mu
                for i in range(mpow + 1):
                    iaxpy(out.setdefault((npow + i, mpow - i), {}),
                          -cg * comb(mpow, i), inner)
    sgn = -((-1) ** (parity(a[1]) * parity(b[1])))
    for npow, items in gen_bracket(*a, *c):
        for (kg, gm), cg in items:
            for mpow, inner in gen_bracket(*b, kg, gm):
                iaxpy(out.setdefault((npow, mpow), {}), sgn * cg, inner)
    return _exact(out)


class AxiomReport:
    """Counts and failures of one exhaustive sweep."""
    __slots__ = ("pairs_checked", "triples_checked", "failures")

    def __init__(self):
        self.pairs_checked = 0
        self.triples_checked = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures


def check_conformal_axioms(max_dpow: int = 2) -> AxiomReport:
    """Exhaustive sesquilinearity/skew check on basis pairs and Jacobi on
    basis triples with pd-powers up to max_dpow."""
    rep = AxiomReport()
    gens = k4_basis(max_dpow)
    for a in gens:
        for b in gens:
            d1, d2 = sesquilinearity_defect(a, b)
            if not (poly_is_zero(d1) and poly_is_zero(d2)):
                rep.failures.append(("sesquilinearity", a, b))
            if not poly_is_zero(skew_defect(a, b)):
                rep.failures.append(("skew", a, b))
            rep.pairs_checked += 1
    for a in gens:
        for b in gens:
            for c in gens:
                if jacobi_defect(a, b, c):
                    rep.failures.append(("jacobi", a, b, c))
                rep.triples_checked += 1
    return rep


def check_derived_closure(max_dpow: int = 2) -> bool:
    """No bracket of basis elements ever has a bare xi_1234 component."""
    for a in k4_basis(max_dpow):
        for b in k4_basis(max_dpow):
            for _, items in gen_bracket(*a, *b):
                if not in_derived(dict(items)):
                    return False
    return True
