"""Generalized Verma modules Ind(F) over the annihilation algebra.

As a vector space Ind(F) = C[Theta] (x) Lambda(eta_1..eta_4) (x) F, where
eta_i is the image of xi_i in U(g_{<0}) and eta_i^2 = Theta (central).  A
basis vector Theta^k eta_L (x) v_mon is keyed (k, Lmask, mon) with mon a
monomial key of the weight module F.  Degrees: deg Theta^k eta_L = 2k + |L|.

Three independent implementations of the module action live here.

1. `lambda_action`: the closed-form lambda-expansion of the action of the
   fields xi_I on Theta-power-zero vectors, extended to all Theta powers by
   the recursion  V_k = (Theta + lambda) V_{k-1} - chi_{|I|=4} eps_I
   Theta^{k-1} eta_L (x) Cv.  The action of t^j xi_I is j! times the
   lambda^j coefficient.

2. `dual_lambda_action`: the Hodge-conjugated closed form, i.e. the action
   transported through T(Theta^k eta_L (x) v) = Theta^k hodge(eta_L) (x) v.
   By construction dual_lambda_action(I, T(v)) must equal
   T(lambda_action(I, v)); tests enforce this everywhere it is used.

3. `act_oracle`: recursive commutation from first principles,
   a.(eta_j u) = [a, xi_j].u + (-1)^{p(a)} eta_j.(a.u), Theta stripped the
   same way, with the base case on 1 (x) w given by the grading (positive
   degree kills, degree zero acts through g_0, negative degree multiplies
   on the left).  This only uses the algebra bracket and is the referee
   for the two closed forms.

All three are compiled to weight-independent symbolic templates keyed on
(generator, Theta power, eta mask), so sweeping thousands of weights reuses
the same symbolic expansion.  A term scales the frozen image act_g0 gives
its token by its coefficient; `act` reads a cached slice of one lambda power.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import annihilation as an
from .exact import ExactScalar, ONE, acc, axpy, scal
from .grassmann import (DERIVE, EPS, HODGE, STAR, complement, derive_seq,
                        indices_of, normalize, size)
from .weights import MonKey, Weight, act_g0, pair_mask

VKey = tuple[int, int, MonKey]      # (Theta power, eta mask, F monomial)
VVec = dict[VKey, ExactScalar]
LambdaVal = dict[int, VVec]

# template term: (lambda power, coeff, Theta power, eta mask, token); the
# token is None (the identity) or the degree-zero key that acts on F:
# (1, 0) for t, an.CKEY for C and (0, pair mask) for xi_pair


def degree(v: VVec):
    degs = {2 * k + size(l) for (k, l, _), c in v.items() if not c.is_zero()}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else "mixed"


# -- left multiplication ------------------------------------------------------

def _eta_shape(j: int, k: int, lmask: int) -> tuple[int, int, int]:
    """eta_j * Theta^k eta_L: (sign, new Theta power, new mask)."""
    bit = 1 << (j - 1)
    below = size(lmask & (bit - 1))
    sign = (-1) ** below
    if lmask & bit:
        return sign, k + 1, lmask & ~bit
    return sign, k, lmask | bit


def eta_mul(j: int, v: VVec) -> VVec:
    out: VVec = {}
    for (k, l, mon), c in v.items():
        s, k2, l2 = _eta_shape(j, k, l)
        acc(out, (k2, l2, mon), c * s)
    return out


def theta_mul(v: VVec, times: int = 1) -> VVec:
    return {(k + times, l, mon): c for (k, l, mon), c in v.items()}


def umult(k: int, lmask: int, v: VVec) -> VVec:
    """Left multiplication by the basis monomial Theta^k eta_L."""
    out = v
    for j in reversed(indices_of(lmask)):
        out = eta_mul(j, out)
    return theta_mul(out, k) if k else out


W_DEFS = {
    "11": ((ONE, 2), (scal(0, 1), 1)),      # eta_2 + i eta_1
    "22": ((ONE, 2), (scal(0, -1), 1)),     # eta_2 - i eta_1
    "12": ((scal(-1), 4), (scal(0, 1), 3)),  # -eta_4 + i eta_3
    "21": ((ONE, 4), (scal(0, 1), 3)),      # eta_4 + i eta_3
}


def w_mul(label: str, v: VVec) -> VVec:
    """Left multiplication by w_ab (the g0-adapted odd generators)."""
    out: VVec = {}
    for c, j in W_DEFS[label]:
        axpy(out, c, eta_mul(j, v).items())
    return out


# -- the closed-form lambda action --------------------------------------------

def _primal_base(imask: int, lmask: int) -> tuple:
    """Terms of xi_I lambda (eta_L (x) v), Theta power zero.  C enters at
    lambda^p, p = 3 - |I| >= 0, as (-1)^(p(p-1)/2) eps_I d_{I^c} eta_L (x) Cv."""
    terms: list = []
    ilen = size(imask)
    isign = (-1) ** ilen
    iidx = indices_of(imask)
    s0, l0 = derive_seq(iidx, lmask)    # the Theta and the t term read it

    # lambda^0
    if s0 and (ilen - 2):
        terms.append((0, scal(isign * (ilen - 2) * s0), 1, l0, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        ss, sl = STAR[1 << (i - 1)][lmask]
        if s1 and ss:
            s2, l2 = derive_seq(indices_of(i2), sl)
            if s2:
                terms.append((0, scal(s1 * ss * s2), 0, l2, None))
    for i in iidx:
        for j in iidx:
            if i < j:
                s1, i2 = derive_seq((i, j), imask)
                if s1:
                    s2, l2 = derive_seq(indices_of(i2), lmask)
                    if s2:
                        ps, pm = pair_mask(j, i)
                        if ps:
                            terms.append((0, scal(isign * s1 * s2 * ps), 0, l2,
                                          (0, pm)))

    # lambda^1
    if s0:
        terms.append((1, scal(isign * s0), 0, l0, (1, 0)))
    lsign = (-1) ** (ilen + size(lmask))
    for i in (1, 2, 3, 4):
        s1, l1 = derive_seq(iidx + (i,), lmask)
        if s1:
            ss, l2 = STAR[l1][1 << (i - 1)]
            if ss:
                terms.append((1, scal(lsign * s1 * ss), 0, l2, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        for j in (1, 2, 3, 4):
            if j == i:
                continue
            s2, l1 = DERIVE[j][lmask]
            if not s2:
                continue
            s3, l2 = derive_seq(indices_of(i2), l1)
            if s3:
                ps, pm = pair_mask(j, i)
                if ps:
                    terms.append((1, scal(s1 * s2 * s3 * ps), 0, l2, (0, pm)))

    # lambda^2
    for i in (1, 2, 3, 4):
        for j in range(i + 1, 5):
            s, l2 = derive_seq(iidx + (i, j), lmask)
            if s:
                ps, pm = pair_mask(j, i)
                if ps:
                    terms.append((2, scal(isign * s * ps), 0, l2, (0, pm)))

    # C, at lambda^(3 - |I|)
    p = 3 - ilen
    if p >= 0:
        s, l2 = derive_seq(indices_of(complement(imask)), lmask)
        if s:
            terms.append((p, scal((-1) ** (p * (p - 1) // 2) * EPS[imask] * s),
                          0, l2, an.CKEY))
    return tuple(terms)


def _theta_step(prev: tuple, imask: int, kprev: int, lmask: int) -> tuple:
    """V_k = (Theta + lambda) V_{k-1} - chi_{|I|=4} eps_I Theta^{k-1} eta_L Cv."""
    out: dict = {}
    for (lp, c, k2, l2, tok) in prev:
        acc(out, (lp, k2 + 1, l2, tok), c)
        acc(out, (lp + 1, k2, l2, tok), c)
    if size(imask) == 4:
        acc(out, (0, kprev, lmask, an.CKEY), scal(-EPS[imask]))
    return tuple((lp, c, k2, l2, tok) for (lp, k2, l2, tok), c in out.items())


@lru_cache(maxsize=None)
def _primal_template(imask: int, k: int, lmask: int) -> tuple:
    if k == 0:
        return _primal_base(imask, lmask)
    return _theta_step(_primal_template(imask, k - 1, lmask), imask, k - 1, lmask)


def _dual_base(imask: int, lmask: int) -> tuple:
    """The Hodge-transported action on eta_L.  C enters at lambda^(3 - |I|)
    as in _primal_base, read through STAR[I^c][L] and times pref."""
    terms: list = []
    ilen = size(imask)
    iidx = indices_of(imask)
    pref = (-1) ** ((ilen * (ilen + 1)) // 2 + ilen * size(lmask))
    s0, m0 = STAR[imask][lmask]         # the Theta and the t term read it

    # lambda^0
    if s0 and (ilen - 2):
        terms.append((0, scal(pref * (ilen - 2) * s0), 1, m0, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        s2, l2 = DERIVE[i][lmask]
        if s1 and s2:
            s3, m = STAR[i2][l2]
            if s3:
                terms.append((0, scal(-pref * (-1) ** ilen * s1 * s2 * s3),
                              0, m, None))
    for r in iidx:
        for s_ in iidx:
            if r < s_:
                s1, i2 = derive_seq((r, s_), imask)
                if s1:
                    s2, m = STAR[i2][lmask]
                    if s2:
                        ps, pm = pair_mask(s_, r)
                        if ps:
                            terms.append((0, scal(-pref * s1 * s2 * ps),
                                          0, m, (0, pm)))

    # lambda^1
    if s0:
        terms.append((1, scal(pref * s0), 0, m0, (1, 0)))
    for i in (1, 2, 3, 4):
        s1, ii = normalize(iidx + (i,))
        if not s1:
            continue
        s2, m1 = STAR[ii][lmask]
        if s2:
            s3, m = DERIVE[i][m1]
            if s3:
                terms.append((1, scal(-pref * (-1) ** ilen * s1 * s2 * s3),
                              0, m, None))
    for j in (1, 2, 3, 4):
        s1, ij = normalize(iidx + (j,))
        if not s1:
            continue
        for i in (1, 2, 3, 4):
            if i == j:
                continue
            s2, d = DERIVE[i][ij]
            if not s2:
                continue
            s3, m = STAR[d][lmask]
            if s3:
                ps, pm = pair_mask(j, i)
                if ps:
                    terms.append((1, scal(pref * (-1) ** ilen * s1 * s2 * s3 * ps),
                                  0, m, (0, pm)))

    # lambda^2
    for i in (1, 2, 3, 4):
        for j in range(i + 1, 5):
            s1, iij = normalize(iidx + (i, j))
            if not s1:
                continue
            s2, m = STAR[iij][lmask]
            if s2:
                ps, pm = pair_mask(j, i)
                if ps:
                    terms.append((2, scal(-pref * s1 * s2 * ps), 0, m, (0, pm)))

    # C, at lambda^(3 - |I|)
    p = 3 - ilen
    if p >= 0:
        s1, m = STAR[complement(imask)][lmask]
        if s1:
            terms.append((p, scal((-1) ** (p * (p - 1) // 2) * pref * EPS[imask]
                                  * s1), 0, m, an.CKEY))
    return tuple(terms)


@lru_cache(maxsize=None)
def _dual_template(imask: int, k: int, lmask: int) -> tuple:
    if k == 0:
        return _dual_base(imask, lmask)
    return _theta_step(_dual_template(imask, k - 1, lmask), imask, k - 1, lmask)


def _eval_template(terms, mon: MonKey, coeff: ExactScalar, wt: Weight,
                   out: LambdaVal) -> None:
    for lp, c, k2, l2, tok in terms:
        target = out.setdefault(lp, {})
        cc = coeff * c
        if tok is None:
            acc(target, (k2, l2, mon), cc)
            continue
        for m, v in act_g0(tok, wt, mon):
            acc(target, (k2, l2, m), v * cc)


def _lambda_expand(template, v: VVec, wt: Weight) -> LambdaVal:
    """Evaluate template(k, lmask) on each term of v, by lambda power."""
    out: LambdaVal = {}
    for (k, l, mon), c in v.items():
        _eval_template(template(k, l), mon, c, wt, out)
    return {lp: vv for lp, vv in out.items() if vv}


def lambda_action(imask: int, v: VVec, wt: Weight) -> LambdaVal:
    return _lambda_expand(lambda k, l: _primal_template(imask, k, l), v, wt)


def dual_lambda_action(imask: int, v: VVec, wt: Weight) -> LambdaVal:
    return _lambda_expand(lambda k, l: _dual_template(imask, k, l), v, wt)


def transform_T(v: VVec) -> VVec:
    out: VVec = {}
    for (k, l, mon), c in v.items():
        s, lc = HODGE[l]
        acc(out, (k, lc, mon), c * s)
    return out


# -- the recursive-commutation oracle -----------------------------------------

@lru_cache(maxsize=None)
def _oracle_template(m: int, imask: int, k: int, lmask: int) -> tuple:
    """Symbolic action of the key (m, imask) on Theta^k eta_L (x) w, as
    template terms at lambda power 0; C is central, so for CKEY the
    recursion leaves the one term ((0, ONE, k, lmask, CKEY),)."""
    out: dict = {}
    if k > 0:
        # a.(Theta u) = [a, Theta].u + Theta.(a.u)
        br = an.bracket({(m, imask): ONE}, dict(an.THETA))
        for key, c in br.items():
            for (_, c2, k2, l2, tok) in _oracle_template(*key, k - 1, lmask):
                acc(out, (k2, l2, tok), c * c2)
        for (_, c2, k2, l2, tok) in _oracle_template(m, imask, k - 1, lmask):
            acc(out, (k2 + 1, l2, tok), c2)
    elif lmask:
        j = indices_of(lmask)[0]
        rest = lmask & ~(1 << (j - 1))
        # a.(eta_j u) = [a, xi_j].u + (-1)^{p(a)} eta_j.(a.u)
        br = an.bracket({(m, imask): ONE}, {(0, 1 << (j - 1)): ONE})
        for key, c in br.items():
            for (_, c2, k2, l2, tok) in _oracle_template(*key, 0, rest):
                acc(out, (k2, l2, tok), c * c2)
        sgn = (-1) ** (size(imask) & 1)
        for (_, c2, k2, l2, tok) in _oracle_template(m, imask, 0, rest):
            s, k3, l3 = _eta_shape(j, k2, l2)
            acc(out, (k3, l3, tok), c2 * s * sgn)
    else:
        d = an.grade_key((m, imask))
        if d == 0:
            acc(out, (0, 0, (m, imask)), ONE)
        elif d < 0:
            if imask == 0:
                acc(out, (1, 0, None), scal(-2))  # xi_empty = -2 Theta
            else:
                acc(out, (0, imask, None), ONE)   # eta_i (x) w
        # positive degree annihilates the vacuum vector
    return tuple((0, c, k2, l2, tok) for (k2, l2, tok), c in out.items())


def act_oracle(key, v: VVec, wt: Weight) -> VVec:
    """Module action of a basis key (t-power, mask), the central key too."""
    return _lambda_expand(lambda k, l: _oracle_template(*key, k, l),
                          v, wt).get(0, {})


@lru_cache(maxsize=None)
def _power_slices(imask: int, k: int, lmask: int) -> tuple:
    """_primal_template split by lambda power j, up to k + 3, the highest."""
    terms = _primal_template(imask, k, lmask)
    return tuple(tuple(t for t in terms if t[0] == j) for j in range(k + 4))


@lru_cache(maxsize=None)
def _factorial(j: int) -> ExactScalar:
    return scal(factorial(j))


def act(key, v: VVec, wt: Weight) -> VVec:
    """Action of t^j xi_I (or C) through the closed-form lambda expansion;
    only the template terms of lambda power j are evaluated."""
    if key == an.CKEY:
        # C is central: its template is the one C-token term
        return _lambda_expand(lambda k, l: ((0, ONE, k, l, an.CKEY),),
                              v, wt).get(0, {})
    j, imask = key
    coeff = _lambda_expand(
        lambda k, l: _power_slices(imask, k, l)[j] if j <= k + 3 else (),
        v, wt).get(j, {})
    f = _factorial(j)
    return coeff if j < 2 else {vk: c * f for vk, c in coeff.items()}


def act_elem(g: an.Element, v: VVec, wt: Weight) -> VVec:
    """Action of an algebra element: the sum of c * act(key, v, wt)."""
    out: VVec = {}
    for key, c in g.items():
        axpy(out, c, act(key, v, wt).items())
    return out
