"""Search for highest weight singular vectors in the induced modules.

A degree-d candidate is a combination of Theta^k eta_L (x) v with
2k + |L| = d.  It is singular when g_{>0}, e1 and e2 annihilate it;
t^j xi_I acts as j! times the lambda^j coefficient of the field xi_I, so
that coefficient vanishes whenever t^j xi_I has positive degree
(`annihilation.grade_key`), and e1 and e2 annihilate the candidate.

Each (weight, degree) pair gives one exact linear system whose kernel
is the space of singular vectors.  The last condition carries no mu, so
every kernel lies in the span of the g0-highest-weight (hw) vectors of
its slice; a basis of that span is cached once per shape (m, n, d).
The primal route solves on that basis: it imposes the two shortcut
generators, which with e1 and e2 generate the positive part, and then
passes each vector of that small kernel through the full conditions.
The dual route is the referee: it applies the odd reflection T to each
plain column and imposes every condition through the dual-form action.
mu enters that action only through t and C, which act on F by scalars
and keep the monomial, so a row that no column's mu part reaches is the
same at every mu.  Once per shape, the dual route reduces those rows to
their kernel K0 (at most four vectors for m, n <= 3) and splits the
other rows on K0 as A0 + mu_t At + mu_C AC; a dual solve combines these
at its mu and reduces on K0.  Both routes report in the plain columns,
so their kernels must coincide.  The Theta-ansatz of the degree bound
mixes degrees, solves the full dual system directly and returns its kernel.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .annihilation import grade_key
from .exact import (ExactScalar, I, ONE, ZERO, RowReducer, axpy, scal,
                    sparse_nullspace)
from .grassmann import ALL_MASKS, indices_of, mask_of, size
from .verma import LambdaVal, VKey, VVec, act_elem, degree, \
    dual_lambda_action, lambda_action, transform_T, w_mul
from .weights import SL2_IN_XI, Weight, weight


def _e_row(sign: int) -> dict:
    """e_x + sign e_y in the xi_ij basis, as {(0, pair mask): c}."""
    ex, ey = SL2_IN_XI["e_x"], SL2_IN_XI["e_y"]
    row = {p: ex.get(p, ZERO) + ey.get(p, ZERO) * sign for p in {**ex, **ey}}
    return {(0, mask_of(p)): c for p, c in row.items() if c}


# tables of (tag, algebra element {(t power, mask): c}):
# e1 = e_x + e_y and e2 = e_x - e_y, combinations of the xi_ij
_E_ROWS = (("e1", _e_row(1)), ("e2", _e_row(-1)))

# (xi_1 + i xi_2) xi_3 xi_4 and t(xi_1 + i xi_2): each is a combination of
# positive-degree conditions, and with e1 and e2 they generate the
# positive part
_SHORTCUT = (
    ("(xi_1+i xi_2)xi_3 xi_4", {(0, mask_of((1, 3, 4))): ONE,
                                (0, mask_of((2, 3, 4))): I}),
    ("t(xi_1+i xi_2)", {(1, mask_of((1,))): ONE, (1, mask_of((2,))): I}),
)


def _conditions(lam: dict[int, LambdaVal]) -> dict:
    """Condition images of one vector, from its lambda actions lam[imask]:
    each (imask, lp) with t^lp xi_I of positive degree, then "e1" and "e2"."""
    out: dict = {(imask, lp): vec for imask, by_power in lam.items()
                 for lp, vec in by_power.items() if grade_key((lp, imask)) > 0}
    out.update(_images(_E_ROWS, lam))
    return out


def _images(table, lam: dict[int, LambdaVal]) -> dict:
    """Images of a table's elements, from the lambda actions lam[mask]:
    t^j xi_I acts as j! times the lambda^j coefficient of xi_I."""
    out: dict = {}
    for tag, g in table:
        img: VVec = {}
        for (j, imask), c in g.items():
            f = factorial(j)
            axpy(img, c * f if f != 1 else c, lam[imask].get(j, {}).items())
        out[tag] = img
    return out


def candidate_keys(wt: Weight, deg: int) -> list[VKey]:
    """Basis keys of the degree-deg slice."""
    out: list[VKey] = []
    for k in range(deg // 2 + 1):
        r = deg - 2 * k
        if r > 4:
            continue
        for l in ALL_MASKS:
            if size(l) != r:
                continue
            for mon in wt.keys():
                out.append((k, l, mon))
    return sorted(out)


def _rows(images) -> dict[tuple, dict[int, ExactScalar]]:
    """Rows keyed by (condition, output key), from each column's condition
    images in column order."""
    rows: dict[tuple, dict[int, ExactScalar]] = {}
    for ci, conds in enumerate(images):
        for cond, vec in conds.items():
            for out_vk, c in vec.items():
                rows.setdefault((cond, out_vk), {})[ci] = c
    return rows


def _table_rows(table, wt: Weight, cols: Sequence[VVec]) -> list[dict]:
    """Rows of the images of a table's elements on each column vector."""
    return list(_rows({tag: act_elem(g, col, wt) for tag, g in table}
                      for col in cols).values())


def _direct_rows(wt: Weight, cols: Sequence[VVec]) -> dict:
    """The full dual system on the column vectors, evaluated directly at
    wt: every condition image of T of each column through the dual-form
    action."""
    return _rows(_conditions({imask: dual_lambda_action(imask, tcol, wt)
                              for imask in ALL_MASKS})
                 for tcol in map(transform_T, cols))


@lru_cache(maxsize=None)
def _hw_basis(m: int, n: int, d: int) -> tuple[VVec, ...]:
    """A basis of the e1/e2 kernel on candidate_keys at degree d over
    F(m, n).  The lambda^0 terms of the pair-mask templates carry no t or
    C token, so one basis, computed at mu = 0, serves every mu."""
    wt = weight(m, n, 0, 0)
    cols = candidate_keys(wt, d)
    red = RowReducer(len(cols))
    for row in _table_rows(_E_ROWS, wt, [{vk: ONE} for vk in cols]):
        red.add_row(row)
    return tuple({cols[i]: c for i, c in vec.items()}
                 for vec in red.nullspace())


_MU_UNITS = ((0, 0), (1, 0), (0, 1))


@lru_cache(maxsize=None)
def _dual_mu(k: int, l: int) -> frozenset:
    """The row keys that mu reaches on the column Theta^k eta_l (x) (0, 0):
    those whose rows at mu = (1, 0) or (0, 1) differ from the row at
    mu = 0.  t and C act on F by scalars and keep the monomial, so on a
    column Theta^k eta_l (x) mon of any shape mu reaches these keys with
    the output monomial (0, 0) replaced by mon."""
    base, *moved = [_direct_rows(weight(0, 0, *mu), [{(k, l, (0, 0)): ONE}])
                    for mu in _MU_UNITS]
    return frozenset(key for rows in moved for key in {**base, **rows}
                     if rows.get(key) != base.get(key))


@dataclass(frozen=True)
class _DualRecord:
    """The dual route at one shape (m, n, d).  k0 is the kernel of the rows
    that no mu reaches; those rows are the same at every mu, so every dual
    kernel of the shape lies in K0.  rows are the other rows on K0, split
    by how mu enters as (A0, At, AC): at mu, a row is A0 + mu_t At + mu_C AC."""
    k0: tuple[VVec, ...]
    rows: tuple[tuple[dict, dict, dict], ...]


@lru_cache(maxsize=None)
def _dual_record(m: int, n: int, d: int) -> _DualRecord:
    """The dual route's record of the shape (m, n, d)."""
    wt = weight(m, n, 0, 0)
    cols = candidate_keys(wt, d)
    reached = {(cond, (k2, l2, mon)) for k, l, mon in cols
               for cond, (k2, l2, _) in _dual_mu(k, l)}
    red = RowReducer(len(cols))
    for key, row in _direct_rows(wt, [{vk: ONE} for vk in cols]).items():
        if key not in reached:
            red.add_row(row)
            if len(red.pivots) == len(cols):
                break
    k0 = tuple({cols[i]: c for i, c in vec.items()} for vec in red.nullspace())
    # the images of K0 at mu = 0, (1, 0) and (0, 1) are A0, A0 + At and
    # A0 + AC
    base, *moved = [_direct_rows(weight(m, n, *mu), k0) for mu in _MU_UNITS]
    rows = []
    for key in {**base, **moved[0], **moved[1]}:
        a0 = base.get(key, {})
        parts = [dict(at.get(key, {})) for at in moved]
        for part in parts:
            axpy(part, -ONE, a0.items())
        rows.append((a0, *parts))
    return _DualRecord(k0, tuple(rows))


def _assemble_rows(wt: Weight, cols: Sequence[VVec], dual: bool) -> list[dict]:
    """One row per condition image of each column vector.  The primal
    route takes hw vectors, which e1 and e2 already kill, and imposes the
    shortcut generators.  The dual route takes the K0 basis of its shape's
    record as the columns and combines the record's rows at wt's mu."""
    if not dual:
        return _table_rows(_SHORTCUT, wt, cols)
    if not cols:
        return []
    out = []
    for a0, at, ac in _dual_record(wt.m, wt.n, degree(cols[0])).rows:
        row = dict(a0)
        for mu, part in ((wt.mu_t, at), (wt.mu_C, ac)):
            if mu:
                axpy(row, mu, part.items())
        if row:
            out.append(row)
    return out


def _canonical(vecs, cols: list[VKey]) -> tuple[VVec, ...]:
    """Reduced echelon basis of the span, as key-coefficient dicts."""
    idx = {vk: i for i, vk in enumerate(cols)}
    red = RowReducer(len(cols))
    for v in vecs:
        red.add_row({idx[vk]: c for vk, c in v.items()})
    return tuple({cols[i]: c for i, c in sorted(red.pivots[lead].items())}
                 for lead in sorted(red.pivots))


def _kernel(rows, cols: Sequence[VVec]) -> list[VVec]:
    """A kernel basis of the rows, as combinations of the column vectors."""
    out = []
    for vec in sparse_nullspace(rows, len(cols)):
        v: VVec = {}
        for i, c in vec.items():
            axpy(v, c, cols[i].items())
        out.append(v)
    return out


@dataclass(frozen=True)
class SingularReport:
    weight: Weight
    deg: int
    kernel: tuple[VVec, ...]
    labels: tuple

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def solve(wt: Weight, deg: int, dual: bool = False) -> SingularReport:
    """Kernel of the singular-vector system, in plain coordinates: on the
    hw basis, each vector checked against the full conditions, or on the
    dual route on the K0 of the shape's record."""
    if deg < 1:
        raise ValueError("degree must be a positive integer")
    if dual:
        cols = _dual_record(wt.m, wt.n, deg).k0
    else:
        cols = _hw_basis(wt.m, wt.n, deg)
    kern = _kernel(_assemble_rows(wt, cols, dual), cols)
    if not dual:
        for v in kern:
            if not verify_vector(v, wt).ok:
                raise RuntimeError(f"a shortcut kernel vector fails the full "
                                   f"conditions at weight {wt} degree {deg}")
    canon = _canonical(kern, candidate_keys(wt, deg))
    labels = tuple(match_label(wt, deg, v) for v in canon)
    return SingularReport(wt, deg, canon, labels)


# ---------------------------------------------------------------------------
# the classification tables
# ---------------------------------------------------------------------------

_F = Fraction
_ANY = float("inf")


@dataclass(frozen=True)
class Family:
    """One row of the classification: degree, the inclusive (m, n) box
    (lo_m, hi_m, lo_n, hi_n), the mu formula, and the vector's terms."""
    label: str
    deg: int
    box: tuple
    mu: Callable  # (m, n) -> (mu_t, mu_C)
    terms: tuple  # (sign, w-labels right-to-left nested, monomial offset)

    def in_range(self, m: int, n: int) -> bool:
        """Whether the family has a member at labels (m, n)."""
        lo_m, hi_m, lo_n, hi_n = self.box
        return lo_m <= m <= hi_m and lo_n <= n <= hi_n

    def weight_at(self, m: int, n: int) -> Weight:
        return weight(m, n, *self.mu(m, n))


# the one-parameter degree-2 families are pinned to an sl2-trivial side,
# the degree-3 vectors to one point
FAMILIES = {fam.label: fam for fam in (
    Family("1a", 1, (0, _ANY, 0, _ANY),
           lambda m, n: (_F(-(m + n), 2), _F(m - n, 2)),
           ((1, ("11",), (0, 0)),)),
    Family("1b", 1, (1, _ANY, 0, _ANY),
           lambda m, n: (1 + _F(m - n, 2), -1 - _F(m + n, 2)),
           ((1, ("21",), (0, 0)), (-1, ("11",), (-1, 0)))),
    Family("1c", 1, (1, _ANY, 1, _ANY),
           lambda m, n: (2 + _F(m + n, 2), _F(n - m, 2)),
           ((1, ("22",), (0, 0)), (-1, ("12",), (-1, 0)),
            (-1, ("21",), (0, -1)), (1, ("11",), (-1, -1)))),
    Family("1d", 1, (0, _ANY, 1, _ANY),
           lambda m, n: (1 + _F(n - m, 2), 1 + _F(m + n, 2)),
           ((1, ("12",), (0, 0)), (-1, ("11",), (0, -1)))),
    Family("2a", 2, (0, 0, 0, _ANY),
           lambda m, n: (1 - _F(n, 2), -1 - _F(n, 2)),
           ((1, ("11", "21"), (0, 0)),)),
    Family("2b", 2, (0, _ANY, 0, 0),
           lambda m, n: (1 - _F(m, 2), 1 + _F(m, 2)),
           ((1, ("11", "12"), (0, 0)),)),
    Family("2c", 2, (2, _ANY, 0, 0),
           lambda m, n: (2 + _F(m, 2), -_F(m, 2)),
           ((1, ("22", "21"), (0, 0)), (1, ("11", "22"), (-1, 0)),
            (1, ("21", "12"), (-1, 0)), (-1, ("11", "12"), (-2, 0)))),
    Family("2d", 2, (0, 0, 2, _ANY),
           lambda m, n: (2 + _F(n, 2), _F(n, 2)),
           ((1, ("22", "12"), (0, 0)), (-1, ("22", "11"), (0, -1)),
            (-1, ("21", "12"), (0, -1)), (-1, ("11", "21"), (0, -2)))),
    Family("3a", 3, (1, 1, 0, 0),
           lambda m, n: (_F(5, 2), _F(-1, 2)),
           ((1, ("11", "22", "21"), (0, 0)),
            (1, ("21", "12", "11"), (-1, 0)))),
    Family("3b", 3, (0, 0, 1, 1),
           lambda m, n: (_F(5, 2), _F(1, 2)),
           ((1, ("11", "22", "12"), (0, 0)),
            (1, ("12", "21", "11"), (0, -1)))),
)}


def build_theorem_vector(label: str, m: int, n: int) -> tuple[Weight, VVec]:
    """The classified singular vector of a family at parameters (m, n)."""
    if label not in FAMILIES:
        raise KeyError(f"unknown family {label!r}")
    if not FAMILIES[label].in_range(m, n):
        raise ValueError(f"family {label} has no member at (m, n)=({m}, {n})")
    fam = FAMILIES[label]
    wt = fam.weight_at(m, n)
    out: VVec = {}
    for sign, word, (da, db) in fam.terms:
        v: VVec = {(0, 0, (m + da, n + db)): scal(sign)}
        for lab in reversed(word):
            v = w_mul(lab, v)
        axpy(out, ONE, v.items())
    return wt, out


def expected_labels(wt: Weight, deg: int) -> list[str]:
    return [label for label, fam in FAMILIES.items() if fam.deg == deg
            and fam.in_range(wt.m, wt.n) and fam.weight_at(wt.m, wt.n) == wt]


def table_weights(max_mn: int) -> dict[Weight, list[tuple[str, int, int]]]:
    """Each weight carrying a family member with m, n <= max_mn, mapped
    to its (label, m, n) instances: the table sweep of `verify-theorems`,
    of the complexes' edges and of the acceptance gate."""
    out: dict = {}
    for label, fam in FAMILIES.items():
        for m in range(max_mn + 1):
            for n in range(max_mn + 1):
                if fam.in_range(m, n):
                    out.setdefault(fam.weight_at(m, n), []).append(
                        (label, m, n))
    return out


def box_edge_weights(max_mn: int) -> list[tuple[str, Weight]]:
    """Each family's formula weight one step past a finite bound of its
    box, the other label anywhere in 0..max_mn, as (label, weight): a box
    narrowed by mistake leaves there a member that no record claims."""
    grid = range(max_mn + 1)
    out = []
    for label, fam in FAMILIES.items():
        lo_m, hi_m, lo_n, hi_n = fam.box
        spots = {(m, n) for m in (lo_m - 1, hi_m + 1) if m in grid
                 for n in grid}
        spots |= {(m, n) for n in (lo_n - 1, hi_n + 1) if n in grid
                  for m in grid}
        out += [(label, fam.weight_at(m, n)) for m, n in sorted(spots)]
    return out


_SHIFTS = (_F(1), _F(-1), _F(1, 2), _F(-1, 2), _F(2), _F(3, 2))


def _unclaimed(wt: Weight) -> bool:
    return not any(expected_labels(wt, d) for d in (1, 2, 3))


def off_list_weights(max_mn: int, count: int, seed: int) -> list[Weight]:
    """Seeded distinct weights next to a family formula, with m, n <= max_mn,
    that no family claims at degrees 1-3.  Once 1000 draws have missed, a
    count above the number of such weights raises ValueError."""
    rng = random.Random(seed)
    labels = sorted(FAMILIES)
    out: dict[Weight, None] = {}
    misses = 0
    while len(out) < count:
        m, n = rng.randint(0, max_mn), rng.randint(0, max_mn)
        mu_t, mu_C = FAMILIES[rng.choice(labels)].mu(m, n)
        wt = weight(m, n, mu_t + rng.choice(_SHIFTS),
                    mu_C + rng.choice(_SHIFTS))
        if wt not in out and _unclaimed(wt):
            out[wt] = None
            continue
        misses += 1
        if misses == 1000:
            grid = range(max_mn + 1)
            near = {weight(a, b, mt + dt, mc + dc) for a in grid for b in grid
                    for mt, mc in (fam.mu(a, b) for fam in FAMILIES.values())
                    for dt in _SHIFTS for dc in _SHIFTS}
            total = sum(map(_unclaimed, near))
            if count > total:
                raise ValueError(f"{count} exceeds the {total} off-list "
                                 f"weights with m, n <= {max_mn}")
    return list(out)


def match_label(wt: Weight, deg: int, v: VVec):
    """Label of the classified vector this one is a scalar multiple of."""
    for label in expected_labels(wt, deg):
        _, ref = build_theorem_vector(label, wt.m, wt.n)
        if _scalar_equal(v, ref):
            return label
    return None


def _scalar_equal(a: VVec, b: VVec) -> bool:
    if not a or not b or set(a) != set(b):
        return False
    lead = min(a)
    ratio_a, ratio_b = a[lead], b[lead]
    return all((a[k] * ratio_b - b[k] * ratio_a).is_zero() for k in a)


# ---------------------------------------------------------------------------
# direct verification of a given candidate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[str, ...]


def _gen_name(imask: int, lp: int) -> str:
    digits = "".join(str(i) for i in indices_of(imask))
    return f"t^{lp} xi_{digits or 'empty'}"


def verify_vector(v: VVec, wt: Weight) -> VerifyReport:
    """Run the full condition sweep and the four-generator shortcut.

    The two routes must agree; a disagreement means the engine itself is
    inconsistent and raises instead of returning.
    """
    d = degree(v)
    if d == "mixed":
        raise ValueError("candidate must be homogeneous in degree")
    if not v:
        raise ValueError("zero vector is not a singular vector candidate")

    lam = {imask: lambda_action(imask, v, wt) for imask in ALL_MASKS}
    conds = _conditions(lam)
    failures = [cond if isinstance(cond, str) else _gen_name(*cond)
                for cond, img in conds.items() if img]
    # the shortcut: e1 and e2 from the sweep's images, then _SHORTCUT
    ok_short = not (conds["e1"] or conds["e2"]
                    or any(_images(_SHORTCUT, lam).values()))
    if (not failures) != ok_short:
        raise RuntimeError(f"full sweep and shortcut disagree at weight {wt} "
                           f"degree {d} on {v!r}")
    return VerifyReport(not failures, tuple(sorted(set(failures))))


# ---------------------------------------------------------------------------
# Theta-degree bound
# ---------------------------------------------------------------------------


def theta_ansatz_kernel(wt: Weight, nmax: int) -> tuple[VVec, ...]:
    """The canonical kernel, in T-image coordinates, of the full ansatz
    sum_{k <= nmax} Theta^k eta_L (x) v_{L,k}; it mixes all degrees and is
    solved on the dual route."""
    cols = sorted((k, l, mon) for k in range(nmax + 1)
                  for l in ALL_MASKS for mon in wt.keys())
    unit = [{vk: ONE} for vk in cols]
    return _canonical(map(transform_T, _kernel(_direct_rows(wt, unit).values(),
                                               unit)), cols)


# ---------------------------------------------------------------------------
# sweeping a range of weights
# ---------------------------------------------------------------------------


def classify(wt: Weight):
    """Solve at degrees 1-3 and confirm each kernel on the dual route."""
    out = {}
    for d in (1, 2, 3):
        rep = solve(wt, d)
        if rep.kernel != solve(wt, d, dual=True).kernel:
            raise RuntimeError(f"dual route disagrees at weight {wt} "
                               f"degree {d}")
        out[d] = rep
    return out
