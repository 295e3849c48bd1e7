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
(generator, Theta power, eta mask), one slice of terms per lambda power, so
sweeping thousands of weights reuses them.  One pass evaluates one slice on
one monomial into one flat vector, each term scaling act_g0's frozen image.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import annihilation as an
from .exact import ExactScalar, ONE, acc, axpy, scal
from .grassmann import (DERIVE, EPS, HODGE, MASK_ALL, PAIRS, PARTIAL, STAR,
                        complement, derive_seq, indices_of, size)
from .weights import MonKey, Weight, act_g0

VKey = tuple[int, int, MonKey]      # (Theta power, eta mask, F monomial)
VVec = dict[VKey, ExactScalar]
LambdaVal = dict[int, VVec]

# template: slice j holds the lambda^j terms (coeff, Theta power, eta mask,
# token); the token is None (the identity) or the degree-zero key that acts
# on F: (1, 0) for t, an.CKEY for C and (0, pair mask) for xi_pair


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

def _check_masks(imask: int, lmask: int) -> None:
    """Only a cold template build runs this, so warm calls pay nothing."""
    for name, mask in (("generator", imask), ("eta", lmask)):
        if not 0 <= mask <= MASK_ALL:
            raise ValueError(f"{name} mask {mask} is outside 0..{MASK_ALL}")


def _check_power(k: int) -> None:
    """Cold template builds run this too: below 0 the Theta recursion
    would never reach its base."""
    if k < 0:
        raise ValueError(f"Theta power {k} is below 0")


def _primal_base(imask: int, lmask: int) -> tuple:
    """Slices of xi_I lambda (eta_L (x) v), Theta power zero.  C enters at
    lambda^p, p = 3 - |I| >= 0, as (-1)^(p(p-1)/2) eps_I d_{I^c} eta_L (x) Cv."""
    _check_masks(imask, lmask)
    terms: tuple = ([], [], [], [])
    ilen = size(imask)
    isign = (-1) ** ilen
    iidx = indices_of(imask)
    s0, l0 = PARTIAL[imask][lmask]      # the Theta and the t term read it

    # lambda^0
    if s0 and (ilen - 2):
        terms[0].append((scal(isign * (ilen - 2) * s0), 1, l0, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        ss, sl = STAR[1 << (i - 1)][lmask]
        if s1 and ss:
            s2, l2 = PARTIAL[i2][sl]
            if s2:
                terms[0].append((scal(s1 * ss * s2), 0, l2, None))
    for pm in PAIRS:                    # xi_{j,i} = -xi_pm at i < j
        s1, i2 = PARTIAL[pm][imask]
        if s1:
            s2, l2 = PARTIAL[i2][lmask]
            if s2:
                terms[0].append((scal(-isign * s1 * s2), 0, l2, (0, pm)))

    # lambda^1
    if s0:
        terms[1].append((scal(isign * s0), 0, l0, (1, 0)))
    lsign = (-1) ** (ilen + size(lmask))
    for i in (1, 2, 3, 4):
        s1, l1 = derive_seq(iidx + (i,), lmask)
        if s1:
            ss, l2 = STAR[l1][1 << (i - 1)]
            if ss:
                terms[1].append((scal(lsign * s1 * ss), 0, l2, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        for j in indices_of(lmask):
            ps, pm = STAR[1 << (j - 1)][1 << (i - 1)]
            s2, l1 = DERIVE[j][lmask]
            s3, l2 = PARTIAL[i2][l1]
            if ps and s3:
                terms[1].append((scal(s1 * s2 * s3 * ps), 0, l2, (0, pm)))

    # lambda^2
    for pm in PAIRS:
        s, l2 = derive_seq(iidx + indices_of(pm), lmask)
        if s:
            terms[2].append((scal(-isign * s), 0, l2, (0, pm)))

    # C, at lambda^(3 - |I|)
    p = 3 - ilen
    if p >= 0:
        s, l2 = PARTIAL[complement(imask)][lmask]
        if s:
            terms[p].append((scal((-1) ** (p * (p - 1) // 2) * EPS[imask] * s),
                             0, l2, an.CKEY))
    return tuple(map(tuple, terms))


def _theta_step(prev: tuple, imask: int, kprev: int, lmask: int) -> tuple:
    """V_k = (Theta + lambda) V_{k-1} - chi_{|I|=4} eps_I Theta^{k-1} eta_L Cv,
    summed in one dict keyed (j, Theta power, eta mask, token) and split
    into slices once."""
    out: dict = {}
    for j, terms in enumerate(prev):
        for c, k2, l2, tok in terms:
            acc(out, (j, k2 + 1, l2, tok), c)
            acc(out, (j + 1, k2, l2, tok), c)
    if size(imask) == 4:
        acc(out, (0, kprev, lmask, an.CKEY), scal(-EPS[imask]))
    slices: tuple = tuple([] for _ in range(len(prev) + 1))
    for (j, k2, l2, tok), c in out.items():
        slices[j].append((c, k2, l2, tok))
    return tuple(map(tuple, slices))


@lru_cache(maxsize=None)
def _primal_template(imask: int, k: int, lmask: int) -> tuple:
    if k == 0:
        return _primal_base(imask, lmask)
    _check_power(k)
    return _theta_step(_primal_template(imask, k - 1, lmask), imask, k - 1, lmask)


def _dual_base(imask: int, lmask: int) -> tuple:
    """The Hodge-transported action on eta_L.  C enters at lambda^(3 - |I|)
    as in _primal_base, read through STAR[I^c][L] and times pref."""
    _check_masks(imask, lmask)
    terms: tuple = ([], [], [], [])
    ilen = size(imask)
    iidx = indices_of(imask)
    pref = (-1) ** ((ilen * (ilen + 1)) // 2 + ilen * size(lmask))
    s0, m0 = STAR[imask][lmask]         # the Theta and the t term read it

    # lambda^0
    if s0 and (ilen - 2):
        terms[0].append((scal(pref * (ilen - 2) * s0), 1, m0, None))
    for i in iidx:
        s1, i2 = DERIVE[i][imask]
        s2, l2 = DERIVE[i][lmask]
        if s1 and s2:
            s3, m = STAR[i2][l2]
            if s3:
                terms[0].append((scal(-pref * (-1) ** ilen * s1 * s2 * s3),
                                 0, m, None))
    for pm in PAIRS:                    # xi_{j,i} = -xi_pm at i < j
        s1, i2 = PARTIAL[pm][imask]
        if s1:
            s2, m = STAR[i2][lmask]
            if s2:
                terms[0].append((scal(pref * s1 * s2), 0, m, (0, pm)))

    # lambda^1
    if s0:
        terms[1].append((scal(pref * s0), 0, m0, (1, 0)))
    for i in (1, 2, 3, 4):
        s1, ii = STAR[imask][1 << (i - 1)]
        if not s1:
            continue
        s2, m1 = STAR[ii][lmask]
        if s2:
            s3, m = DERIVE[i][m1]
            if s3:
                terms[1].append((scal(-pref * (-1) ** ilen * s1 * s2 * s3),
                                 0, m, None))
    for j in (1, 2, 3, 4):
        s1, ij = STAR[imask][1 << (j - 1)]
        if not s1:
            continue
        for i in indices_of(ij):
            ps, pm = STAR[1 << (j - 1)][1 << (i - 1)]
            s2, d = DERIVE[i][ij]
            s3, m = STAR[d][lmask]
            if ps and s3:
                terms[1].append((scal(pref * (-1) ** ilen * s1 * s2 * s3 * ps),
                                 0, m, (0, pm)))

    # lambda^2
    for pm in PAIRS:
        s1, iij = STAR[imask][pm]
        if not s1:
            continue
        s2, m = STAR[iij][lmask]
        if s2:
            terms[2].append((scal(pref * s1 * s2), 0, m, (0, pm)))

    # C, at lambda^(3 - |I|)
    p = 3 - ilen
    if p >= 0:
        s1, m = STAR[complement(imask)][lmask]
        if s1:
            terms[p].append((scal((-1) ** (p * (p - 1) // 2) * pref * EPS[imask]
                                  * s1), 0, m, an.CKEY))
    return tuple(map(tuple, terms))


@lru_cache(maxsize=None)
def _dual_template(imask: int, k: int, lmask: int) -> tuple:
    if k == 0:
        return _dual_base(imask, lmask)
    _check_power(k)
    return _theta_step(_dual_template(imask, k - 1, lmask), imask, k - 1, lmask)


def _eval_template(terms, mon: MonKey, coeff: ExactScalar, wt: Weight,
                   out: VVec) -> None:
    unit = coeff is ONE or coeff == ONE
    for c, k2, l2, tok in terms:
        cc = c if unit else coeff * c
        if tok is None:
            acc(out, (k2, l2, mon), cc)
            continue
        for m, v in act_g0(tok, wt, mon):
            acc(out, (k2, l2, m), v * cc)


def _lambda_expand(template, imask: int, v: VVec, wt: Weight) -> LambdaVal:
    """Evaluate the slices of template(imask, k, lmask) on each term of v."""
    out: LambdaVal = {}
    for (k, l, mon), c in v.items():
        for j, terms in enumerate(template(imask, k, l)):
            if terms:
                _eval_template(terms, mon, c, wt, out.setdefault(j, {}))
    return {j: vv for j, vv in out.items() if vv}


def lambda_action(imask: int, v: VVec, wt: Weight) -> LambdaVal:
    return _lambda_expand(_primal_template, imask, v, wt)


def dual_lambda_action(imask: int, v: VVec, wt: Weight) -> LambdaVal:
    return _lambda_expand(_dual_template, imask, v, wt)


def transform_T(v: VVec) -> VVec:
    out: VVec = {}
    for (k, l, mon), c in v.items():
        s, lc = HODGE[l]
        acc(out, (k, lc, mon), c * s)
    return out


# -- the recursive-commutation oracle -----------------------------------------

@lru_cache(maxsize=None)
def _oracle_template(m: int, imask: int, k: int, lmask: int) -> tuple:
    """Symbolic action of the key (m, imask) on Theta^k eta_L (x) w, as the
    one template slice, at lambda power 0; C is central, so for CKEY the
    recursion leaves the one term ((ONE, k, lmask, CKEY),)."""
    if not 0 <= imask <= MASK_ALL or (m < 0 and (m, imask) != an.CKEY):
        raise ValueError(f"{(m, imask)} is not a basis key")
    _check_power(k)
    out: dict = {}
    if k > 0:
        # a.(Theta u) = [a, Theta].u + Theta.(a.u)
        br = an.bracket({(m, imask): ONE}, dict(an.THETA))
        for key, c in br.items():
            for c2, k2, l2, tok in _oracle_template(*key, k - 1, lmask)[0]:
                acc(out, (k2, l2, tok), c * c2)
        for c2, k2, l2, tok in _oracle_template(m, imask, k - 1, lmask)[0]:
            acc(out, (k2 + 1, l2, tok), c2)
    elif lmask:
        j = indices_of(lmask)[0]
        rest = lmask & ~(1 << (j - 1))
        # a.(eta_j u) = [a, xi_j].u + (-1)^{p(a)} eta_j.(a.u)
        br = an.bracket({(m, imask): ONE}, {(0, 1 << (j - 1)): ONE})
        for key, c in br.items():
            for c2, k2, l2, tok in _oracle_template(*key, 0, rest)[0]:
                acc(out, (k2, l2, tok), c * c2)
        sgn = (-1) ** (size(imask) & 1)
        for c2, k2, l2, tok in _oracle_template(m, imask, 0, rest)[0]:
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
    return (tuple((c, k2, l2, tok) for (k2, l2, tok), c in out.items()),)


def act_oracle(key, v: VVec, wt: Weight) -> VVec:
    """Module action of a basis key (t-power, mask), the central key too."""
    out: VVec = {}
    for (k, l, mon), c in v.items():
        _eval_template(_oracle_template(*key, k, l)[0], mon, c, wt, out)
    return out


def act(key, v: VVec, wt: Weight) -> VVec:
    """Action of t^j xi_I: j! times slice j of its closed-form template on
    v.  The central C scales each monomial by its g0 image."""
    if key == an.CKEY:
        return {(k, l, m): c * x for (k, l, mon), c in v.items() if c
                for m, x in act_g0(an.CKEY, wt, mon)}
    j, imask = key
    if j < 0 or not 0 <= imask <= MASK_ALL:
        raise ValueError(f"{key} is not a basis key")
    out: VVec = {}
    for (k, l, mon), c in v.items():
        if j < k + 4:       # the template of Theta^k reaches lambda^(k + 3)
            _eval_template(_primal_template(imask, k, l)[j], mon, c, wt, out)
    if j < 2 or not out:
        return out
    f = scal(factorial(j))
    return {vk: c * f for vk, c in out.items()}


def act_elem(g: an.Element, v: VVec, wt: Weight) -> VVec:
    """Action of an algebra element: the sum of c * act(key, v, wt)."""
    out: VVec = {}
    for key, c in g.items():
        axpy(out, c, act(key, v, wt).items())
    return out
