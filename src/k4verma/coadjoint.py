"""The restricted dual of K(1,4)+ and its identification with M(0,0,2,0).

A functional is stored on the dual basis (t^m xi_I)*, so it is finitely
supported by construction.  The action is (x.f)(y) = -(-1)^{p(x)p(f)}
f([x, y]); pairing against every basis element of the one affected
grade keeps each step finite.  `_pairing` lists, once per pair of basis
keys (x, f), the keys y with f in [x, y] and that coefficient.

The generator goes to Theta* = -2 (xi_empty)*, and multiplying through
the negative part reaches every dual basis vector, which is why the
module with mu_t = 2 and trivial sl2 labels is irreducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import annihilation as an
from .conformal import AxiomReport
from .exact import ExactScalar, ONE, axpy, scal, sparse_nullspace
from .grassmann import ALL_MASKS, mask_of
from .solver import candidate_keys
from .verma import VVec, act_elem
from .weights import weight

# dual elements reuse the (t-power, mask) keys of the primal basis
DualElement = dict[an.Key, ExactScalar]

THETA_STAR: DualElement = {(0, 0): scal(-2)}
_MINUS = scal(-1)

WT_COADJOINT = weight(0, 0, 2, 0)

# the generators that phi is checked to intertwine
EQUIVARIANCE_GENS = (dict(an.THETA), {(0, 2): ONE},
                     {(0, mask_of((1, 2))): ONE}, {(1, 0): ONE},
                     {(1, 4): ONE}, {(0, 15): ONE})


@lru_cache(maxsize=None)
def _pairing(xk: an.Key, fk: an.Key) -> tuple:
    """Every basis key y whose plain bracket [x, y] carries fk, with that
    coefficient: ((yk, c), ...).  Targets below degree -2 pair to nothing."""
    gtarget = an.grade_key(fk) - an.grade_key(xk)
    if gtarget < -2:
        return ()
    return tuple((yk, c) for yk in an.basis_of_degree(gtarget)
                 for k, c in an._key_bracket_plain(*xk, *yk) if k == fk)


def coadjoint_act(x: an.Element, f: DualElement) -> DualElement:
    """Pairing action; the central generator is dropped on both sides."""
    out: DualElement = {}
    for xk, xc in x.items():
        if xk == an.CKEY:
            continue
        px = an.parity(xk)
        for fk, fc in f.items():
            sign = ONE if px and an.parity(fk) else _MINUS
            axpy(out, sign * fc * xc, _pairing(xk, fk))
    return out


def check_representation(max_degree: int) -> AxiomReport:
    """x.(y.f) - (-1)^{p(x)p(y)} y.(x.f) = [x, y].f, with [x, y] the plain
    bracket, for x of t-power <= max_degree // 2 + 1, y of degree -2 or -1
    and f a dual key of degree -2..max_degree; failures are (x, y, f)."""
    rep = AxiomReport()
    ys = an.basis_of_degree(-2) + an.basis_of_degree(-1)
    fs = [fk for d in range(-2, max_degree + 1) for fk in an.basis_of_degree(d)]
    for xk in an.basis(max_degree // 2 + 1, with_central=False):
        x = {xk: ONE}
        for yk in ys:
            y = {yk: ONE}
            xy = an.drop_central(an.bracket(x, y))
            sign = ONE if an.parity(xk) and an.parity(yk) else _MINUS
            for fk in fs:
                f = {fk: ONE}
                defect = coadjoint_act(x, coadjoint_act(y, f))
                axpy(defect, sign, coadjoint_act(y, coadjoint_act(x, f)).items())
                axpy(defect, -ONE, coadjoint_act(xy, f).items())
                if defect:
                    rep.failures.append((xk, yk, fk))
                rep.triples_checked += 1
    return rep


@lru_cache(maxsize=None)
def _phi_key(k: int, lmask: int) -> tuple:
    """phi of Theta^k eta_L (x) 1, frozen: Theta on the image of (k-1, L),
    or eta_j on that of (0, L - j) for the lowest j in L, down to Theta*."""
    if k:
        x, f = dict(an.THETA), _phi_key(k - 1, lmask)
    elif lmask:
        x, f = {(0, lmask & -lmask): ONE}, _phi_key(0, lmask & (lmask - 1))
    else:
        return tuple(THETA_STAR.items())
    return tuple(coadjoint_act(x, dict(f)).items())


def phi_image(v: VVec) -> DualElement:
    """The unique module map out of M(0,0,2,0) hitting Theta*."""
    out: DualElement = {}
    for (k, lmask, mon), c in v.items():
        if mon != (0, 0):
            raise ValueError("the module has trivial sl2 labels")
        axpy(out, c, _phi_key(k, lmask))
    return out


class IsoReport(NamedTuple):
    max_degree: int
    dims: tuple[int, ...]
    bijective: tuple[bool, ...]
    sample_degree: int    # equivariance and linearity use degrees <= this
    equivariant: bool
    linear: bool

    @property
    def ok(self) -> bool:
        return all(self.bijective) and self.equivariant and self.linear


def check_phi_iso(max_degree: int) -> IsoReport:
    dims = []
    bij = []
    for d in range(max_degree + 1):
        ind_keys = candidate_keys(WT_COADJOINT, d)
        dual_keys = sorted(an.basis_of_degree(d - 2))
        dims.append(len(ind_keys))
        idx = {k: i for i, k in enumerate(dual_keys)}
        rows = ({idx[k]: c for k, c in phi_image({vk: ONE}).items()}
                for vk in ind_keys)
        bij.append(len(ind_keys) == len(dual_keys)
                   and not sparse_nullspace(rows, len(dual_keys)))

    sample_degree = min(max_degree, 4)
    vecs = [{vk: ONE} for d in range(sample_degree + 1)
            for vk in candidate_keys(WT_COADJOINT, d)]
    equi = all(phi_image(act_elem(g, v, WT_COADJOINT))
               == coadjoint_act(g, phi_image(v))
               for g in EQUIVARIANCE_GENS for v in vecs)

    u, v0 = vecs[0], vecs[min(3, len(vecs) - 1)]
    combo = {k: c * scal(2, 1) for k, c in u.items()}
    axpy(combo, ONE, v0.items())
    lin_rhs = {k: c * scal(2, 1) for k, c in phi_image(u).items()}
    axpy(lin_rhs, ONE, phi_image(v0).items())
    return IsoReport(max_degree, tuple(dims), tuple(bij), sample_degree,
                     equi, phi_image(combo) == lin_rhs)


def iterated_action_hits_dual_basis(smax: int) -> bool:
    """Theta^s then xi_{i_1 < ... < i_p} on Theta* lands on one dual line,
    for every mask and s <= smax."""
    for mask in ALL_MASKS:
        for s in range(smax + 1):
            f = phi_image({(s, mask, (0, 0)): ONE})
            if set(f) != {(s, mask)} or f[(s, mask)].is_zero():
                return False
    return True


def raising_returns_to_theta_star(mmax: int) -> bool:
    """t^{m+1} xi_I applied to (t^m xi_I)* is a nonzero multiple of Theta*."""
    for mask in ALL_MASKS:
        for m in range(mmax + 1):
            got = coadjoint_act({(m + 1, mask): ONE}, {(m, mask): ONE})
            if set(got) != {(0, 0)} or got[(0, 0)].is_zero():
                return False
    return True
