"""The annihilation superalgebra of K'_4: the central extension
K(1,4)_+ (+) CC, with bracket

  [t^m xi_I, t^n xi_J] = (2n - 2m - n|I| + m|J|) t^{m+n-1} xi_{I wedge J}
                         + (-1)^{|I|} t^{m+n} sum_i (d_i xi_I)(d_i xi_J)
                         + psi(t^m xi_I, t^n xi_J) C.

Basis keys are (m, mask) for t^m xi_I with m >= 0, plus the central element
C stored under CKEY = (-1, 0).  The grading is by deg(t^m xi_I) = 2m+|I|-2,
deg C = 0.

The 2-cocycle psi is supported on t-power zero only:

  psi(1, xi_1234) = -2 = -psi(xi_1234, 1),
  psi(xi_i, xi_{complement}) = psi(xi_{complement}, xi_i) = (-1)^i.

C is central, so the Jacobi identity of the extension holds exactly when
the plain bracket's Jacobi identity (`check_jacobi`) and psi's cocycle
identity (`check_cocycle`) both hold; each is swept once, and
`extension_failures` joins their failing triples.

The same algebra has a second, independent construction from K'_4 itself:
basis xi_I y^m (I != {1,2,3,4}) and (pd xi_1234) y^m, with

  [a y^m, b y^n] = sum_j C(m,j) (a_(j) b) y^{m+n-j}

reduced by pd^k xi_I y^s = (-1)^k perm(s, k) xi_I y^{s-k} and, for the top
monomial, pd^k xi_1234 y^s = (-1)^(k-1) perm(s, k-1) (pd xi_1234) y^{s-k+1}.
The map phi sending xi_I y^m -> t^m xi_I and (pd xi_1234) y^m ->
-m t^{m-1} xi_1234 is a surjective morphism onto K(1,4)_+ with kernel
spanned by (pd xi_1234) y^0, and the section t^m xi_1234 ->
-(pd xi_1234) y^{m+1} / (m+1) recovers psi as the kernel component of
[sec x, sec y] - sec[x, y].  Tests pin the two constructions against each
other; this is the redundancy that guards the cocycle table.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm

from fractions import Fraction

from . import conformal as cf
from .exact import ExactScalar, ZERO, acc, axpy, iaxpy, scal
from .grassmann import DERIVE, MASK_ALL, STAR, complement, size

Key = tuple[int, int]          # (t power, mask); CKEY is the central element
CKEY: Key = (-1, 0)
Element = dict[Key, ExactScalar]


THETA: Element = {(0, 0): scal(Fraction(-1, 2))}


def parity(key: Key) -> int:
    if key == CKEY:
        return 0
    return size(key[1]) & 1


def grade_key(key: Key) -> int:
    if key == CKEY:
        return 0
    m, mask = key
    return 2 * m + size(mask) - 2


# -- the cocycle -------------------------------------------------------------

def _psi_table() -> tuple:
    """psi at t-power zero, indexed [mask I][mask J]."""
    rows = [[ZERO] * 16 for _ in range(16)]
    rows[0][MASK_ALL], rows[MASK_ALL][0] = scal(-2), scal(2)
    for i in (1, 2, 3, 4):
        im = 1 << (i - 1)
        rows[im][complement(im)] = rows[complement(im)][im] = scal((-1) ** i)
    return tuple(map(tuple, rows))


_PSI0 = _psi_table()


def psi_default(a: Key, b: Key) -> ExactScalar:
    if a[0] or b[0]:  # a positive t-power, or CKEY
        return ZERO
    return _PSI0[a[1]][b[1]]


@lru_cache(maxsize=None)
def _key_bracket_plain(m: int, im: int, n: int, jm: int) -> tuple:
    """[t^m xi_I, t^n xi_J] without the central term, frozen."""
    out: Element = {}
    s, mm = STAR[im][jm]
    if s:
        c = 2 * n - 2 * m - n * size(im) + m * size(jm)
        if c and m + n - 1 >= 0:
            acc(out, (m + n - 1, mm), scal(c * s))
    sgn = (-1) ** size(im)
    for i in (1, 2, 3, 4):
        si, mi = DERIVE[i][im]
        sj, mj = DERIVE[i][jm]
        if si and sj:
            st, mk = STAR[mi][mj]
            if st:
                acc(out, (m + n, mk), scal(sgn * si * sj * st))
    return tuple(out.items())


def bracket(a: Element, b: Element, psi=psi_default) -> Element:
    """Bilinear bracket including the central term psi(.,.) C."""
    out: Element = {}
    for ka, ca in a.items():
        if ka == CKEY:
            continue
        for kb, cb in b.items():
            if kb == CKEY:
                continue
            cab = ca * cb
            axpy(out, cab, _key_bracket_plain(*ka, *kb))
            pc = psi(ka, kb)
            if not pc.is_zero():
                acc(out, CKEY, pc * cab)
    return out


def drop_central(a: Element) -> Element:
    return {k: c for k, c in a.items() if k != CKEY}


def basis(max_tpow: int, with_central: bool = True) -> list[Key]:
    keys = [(m, mask) for m in range(max_tpow + 1) for mask in range(16)]
    if with_central:
        keys.append(CKEY)
    return keys


def basis_of_degree(d: int) -> list[Key]:
    # 2m + |I| - 2 = d puts every key of degree d at t-power m <= (d + 2) // 2
    return [k for k in basis(max(0, (d + 2) // 2), with_central=False)
            if grade_key(k) == d]


# -- axiom checks ------------------------------------------------------------

def _plain_ints(x: Key, y: Key) -> tuple:
    """`_key_bracket_plain` of (x, y) as int items; never truncates."""
    items = _key_bracket_plain(*x, *y)
    for k, c in items:
        if c._d != 1 or c._b:
            raise ArithmeticError(f"[{x}, {y}] holds {c} at {k}, not an int")
    return tuple((k, c._a) for k, c in items)


def check_jacobi(max_tpow: int = 3) -> cf.AxiomReport:
    """[a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]] for the plain
    bracket over all basis triples, contracted in ints over
    `_key_bracket_plain`.  C is central, so the extension's Jacobi
    identity is this one plus psi's cocycle identity, which only
    `check_cocycle` checks; `extension_failures` joins the two."""
    rep = cf.AxiomReport()
    keys = basis(max_tpow, with_central=False)
    plain = lru_cache(maxsize=None)(_plain_ints)
    for a in keys:
        pa = parity(a)
        for b in keys:
            sgn = (-1) ** (pa * parity(b))
            ab = plain(a, b)
            for c in keys:
                out: dict = {}
                for k, v in plain(b, c):
                    iaxpy(out, v, plain(a, k))
                for k, v in ab:
                    iaxpy(out, -v, plain(k, c))
                for k, v in plain(a, c):
                    iaxpy(out, -sgn * v, plain(b, k))
                if out:
                    rep.failures.append((a, b, c))
                rep.triples_checked += 1
    return rep


def check_cocycle(max_tpow: int = 3, psi=psi_default) -> cf.AxiomReport:
    """Super skew-symmetry of psi and the 2-cocycle identity
    psi(a,[b,c]) = psi([a,b],c) + (-1)^{p(a)p(b)} psi(b,[a,c]), the
    central part of the extension's Jacobi identity; the plain part is
    `check_jacobi`'s.  psi vanishes on C, so each inner bracket is read as
    int items from the frozen plain table `_key_bracket_plain`."""
    rep = cf.AxiomReport()
    keys = basis(max_tpow, with_central=False)
    plain, psi_at = map(lru_cache(maxsize=None), (_plain_ints, psi))
    for a in keys:
        for b in keys:
            lhs = psi(a, b)
            rhs = -((-1) ** (parity(a) * parity(b))) * psi(b, a)
            if lhs != rhs:
                rep.failures.append(("skew", a, b))
            rep.pairs_checked += 1
    for a in keys:
        for b in keys:
            ab = plain(a, b)
            sgn = (-1) ** (parity(a) * parity(b))
            for c in keys:
                total = ZERO  # the identity's defect; zero psi skipped
                for k, v in plain(b, c):
                    if p := psi_at(a, k):
                        total = total + p * v
                for k, v in ab:
                    if p := psi_at(k, c):
                        total = total - p * v
                for k, v in plain(a, c):
                    if p := psi_at(b, k):
                        total = total - p * (sgn * v)
                if total:
                    rep.failures.append(("cocycle", a, b, c))
                rep.triples_checked += 1
    return rep


def extension_failures(jac: cf.AxiomReport, coc: cf.AxiomReport) -> list:
    """The triples, in sweep order, where the extension's Jacobi identity
    fails: C is central, so it is the plain Jacobi identity (`jac`, from
    `check_jacobi`) plus psi's cocycle identity (the "cocycle" triples of
    `coc`, from `check_cocycle`).  `basis` lists keys sorted, so sorting
    restores the loop order."""
    return sorted({*jac.failures,
                   *(f[1:] for f in coc.failures if f[0] == "cocycle")})


# -- the Lie-presentation route ----------------------------------------------
#
# Keys here: (k, mask, ypow) with k = 0 for xi_I (I != 1234) and
# (1, MASK_ALL, ypow) for (pd xi_1234) y^ypow.

LieKey = tuple[int, int, int]
LieElement = dict[LieKey, ExactScalar]

KERNEL_KEY: LieKey = (1, MASK_ALL, 0)


def _reduce_gen(k: int, mask: int, ypow: int) -> tuple:
    """Push pd powers into y powers: pd^k xi y^s = (-1)^k perm(s, k) xi y^{s-k},
    one pd fewer on the top monomial, which keeps pd xi_1234; the result is
    one (key, int) item, or none."""
    top = mask == MASK_ALL
    s = k - top
    c = (-1) ** s * perm(ypow, s) if s >= 0 else 0
    if c == 0:
        return ()  # s > ypow, or bare xi_1234, which is not in K'_4
    return (((int(top), mask, ypow - s), c),)


@lru_cache(maxsize=None)
def _lie_key_bracket(k1: int, m1: int, y1: int, k2: int, m2: int, y2: int) -> tuple:
    """[(k1, m1, y1), (k2, m2, y2)] contracted in ints from `gen_bracket`,
    frozen as ExactScalar items."""
    out: dict = {}
    for j, items in cf.gen_bracket(k1, m1, k2, m2):
        if j <= y1:
            for (k, mask), c in items:
                iaxpy(out, perm(y1, j) * c, _reduce_gen(k, mask, y1 + y2 - j))
    return tuple((k, scal(c)) for k, c in out.items())


def lie_bracket_K4(a: LieElement, b: LieElement) -> LieElement:
    """[a y^m, b y^n] = sum_j C(m,j) (a_(j) b) y^{m+n-j}, reduced."""
    out: LieElement = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            cab = ca * cb
            axpy(out, cab, _lie_key_bracket(*ka, *kb))
    return out


def lie_basis(max_ypow: int) -> list[LieKey]:
    keys: list[LieKey] = []
    for y in range(max_ypow + 1):
        for mask in range(16):
            if mask != MASK_ALL:
                keys.append((0, mask, y))
        keys.append((1, MASK_ALL, y))
    return keys


def phi(a: LieElement) -> Element:
    """The quotient map onto K(1,4)_+ (central term absent on the target)."""
    out: Element = {}
    for (k, mask, y), c in a.items():
        if mask != MASK_ALL:
            acc(out, (y, mask), c)
        else:
            if y >= 1:
                acc(out, (y - 1, MASK_ALL), scal(-y) * c)
    return out


def section(a: Element) -> LieElement:
    """A linear splitting of phi (defined away from C)."""
    out: LieElement = {}
    for (m, mask), c in a.items():
        if (m, mask) == CKEY:
            raise ValueError("the central element has no preimage")
        if mask != MASK_ALL:
            acc(out, (0, mask, m), c)
        else:
            acc(out, (1, MASK_ALL, m + 1), c * scal(Fraction(-1, m + 1)))
    return out


def check_quotient_morphism(max_ypow: int) -> cf.AxiomReport:
    """phi[a, b] = [phi a, phi b] modulo C over all pairs of Lie basis
    keys with y-power <= max_ypow; failures are the pairs (a, b)."""
    rep = cf.AxiomReport()
    keys = lie_basis(max_ypow)
    singles = {k: {k: scal(1)} for k in keys}
    for a in keys:
        for b in keys:
            lhs = phi(lie_bracket_K4(singles[a], singles[b]))
            rhs = drop_central(bracket(phi(singles[a]), phi(singles[b])))
            if lhs != rhs:
                rep.failures.append((a, b))
            rep.pairs_checked += 1
    return rep


def psi_from_splitting(a: Key, b: Key) -> ExactScalar:
    """Re-derive the cocycle: kernel component of [sec a, sec b] - sec [a,b]."""
    ea = {a: scal(1)}
    eb = {b: scal(1)}
    lie = lie_bracket_K4(section(ea), section(eb))
    plain = drop_central(bracket(ea, eb))
    diff = dict(lie)
    axpy(diff, scal(-1), section(plain).items())
    for key, c in diff.items():
        if key != KERNEL_KEY and not c.is_zero():
            raise ArithmeticError(f"splitting defect is not central: {key}")
    return diff.get(KERNEL_KEY, ZERO)
