"""Seeded inputs, the three workloads, their known answers and their
negative controls.

A workload is a list of ops that makes up one round; a run repeats the
same round, so each op is timed several times.  Every op is a call into
the engine followed by a comparison with a known answer; it returns the
list of witnesses that disagree (empty when the op is correct).  The
engine only ever sees inputs made by `Inputs` from the benchmark seed.

Why each workload exists (BENCHMARK.json carries the same reasons):

* algebra  -- bracket-identity sweeps of `conformal` and `annihilation`;
  integer-heavy scalar arithmetic and bracket caches, no modules and no
  linear algebra, so solver-side changes should leave it unchanged.
* classify -- every table weight with m, n <= 1 plus seeded off-list
  weights at degrees 1-3 on both assembly routes; many weights share each
  (m, n, d) shape, so per-shape caches hit.
* action   -- closed-form action against the commutation oracle, 2-path
  compositions and the coadjoint identification; the only workload that
  reaches `morphisms`, `coadjoint` and the oracle.

The engine has no entry point for one slice of the annihilation Jacobi,
cocycle or quotient sweeps, so the slice ops below repeat the loops of
`annihilation.check_jacobi`, `check_cocycle` and the cli's quotient check
around the engine's `bracket`, `psi`, `phi` and `lie_bracket_K4`.  Two
more ops per round run `check_jacobi` and `check_cocycle` whole at
t-power 0, so a change to the engine's own sweep loops shows too.
Where the slices at t-power <= 1 would make a round too long for a short
run, the seed picks one key of each consecutive pair.

op_p50_ms and op_p90_ms are taken over every warm latency sample of a
run.  Every round has more than 100 ops, so even a run with one warm
round has more than ten samples beyond p90: classify solves every case
on both routes, and action checks each generator key one Theta power at
a time.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable, NamedTuple

from k4verma import annihilation as an
from k4verma import coadjoint as co
from k4verma import conformal as cf
from k4verma import morphisms as mo
from k4verma import solver as sv
from k4verma import verma
from k4verma.exact import ONE, ZERO, scal
from k4verma.weights import Weight, weight


class Op(NamedTuple):
    kind: str                      # span name of the op, e.g. "classify"
    witness: str                   # what the op computes, for reports
    run: Callable[[], list]        # returns the witnesses that failed


class NullTracer:
    """Stand-in for tracing.Tracer in untraced runs."""

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


# ---------------------------------------------------------------------------
# the one seeded input generator
# ---------------------------------------------------------------------------

_SHIFTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
           Fraction(2), Fraction(3, 2))
_FAMILY_LABELS = tuple(sorted(sv.FAMILIES))


class Inputs:
    """The inputs of one stream ("round" or "control") under a seed."""

    def __init__(self, seed: int, stream: str):
        # string seeding goes through sha512, so it ignores PYTHONHASHSEED
        self.rng = random.Random(f"k4verma-bench:{seed}:{stream}")

    def off_list_weight(self, m: int, n: int) -> Weight:
        """A weight next to a family formula that no family claims at
        degrees 1-3 (filtered through solver.expected_labels)."""
        rng = self.rng
        while True:
            base = sv.FAMILIES[rng.choice(_FAMILY_LABELS)].weight_at(m, n)
            wt = weight(m, n, base.mu_t.re + rng.choice(_SHIFTS),
                        base.mu_C.re + rng.choice(_SHIFTS))
            if not any(sv.expected_labels(wt, d) for d in (1, 2, 3)):
                return wt

    def generic_weight(self, m: int, n: int) -> Weight:
        """A weight with small random rational eigenvalues."""
        rng = self.rng

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

        return weight(m, n, rat(), rat())

    def shuffled(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def half(self, items: list) -> list:
        """One item of each consecutive pair, picked by the seed."""
        items = list(items)
        return [items[i + self.rng.randrange(2)]
                for i in range(0, len(items) - 1, 2)]

    def choice(self, items):
        return self.rng.choice(list(items))


def _wt(wt: Weight) -> str:
    return f"({wt.m},{wt.n},{wt.mu_t},{wt.mu_C})"


# ---------------------------------------------------------------------------
# algebra: slices of the bracket-identity sweeps
# ---------------------------------------------------------------------------

PAIR_DPOW = 1      # sesquilinearity and skew over pd-powers <= 1
TRIPLE_DPOW = 0    # conformal Jacobi over bare generators
AN_TPOW = 1        # annihilation Jacobi and cocycle over t-powers <= 1
LIE_YPOW = 2       # quotient morphism over y-powers <= 2
SWEEP_TPOW = 0     # whole engine sweeps over t-powers <= 0


def _acc(d: dict, key, c) -> None:
    w = d.get(key, ZERO) + c
    if w.is_zero():
        d.pop(key, None)
    else:
        d[key] = w


def _conformal_pairs(a, gens, tr) -> list:
    bad = []
    with tr.span("conformal.pairs"):
        for b in gens:
            d1, d2 = cf.sesquilinearity_defect(a, b)
            if not (cf.poly_is_zero(d1) and cf.poly_is_zero(d2)):
                bad.append(("sesquilinearity", a, b))
            if not cf.poly_is_zero(cf.skew_defect(a, b)):
                bad.append(("skew", a, b))
    return bad


def _conformal_jacobi(a, gens, tr) -> list:
    bad = []
    with tr.span("conformal.jacobi"):
        for b in gens:
            for c in gens:
                if cf.jacobi_defect(a, b, c):
                    bad.append(("jacobi", a, b, c))
    tr.count("conformal.triples", len(gens) ** 2)
    return bad


class _AnnihilationTables:
    """Brackets of all basis pairs, shared by the slices of one round the
    way check_jacobi shares them across its triple loop."""

    def __init__(self):
        self.keys = an.basis(AN_TPOW, with_central=False)
        self.single = {k: {k: ONE} for k in self.keys}
        self.pair: dict = {}

    def build(self, tr) -> list:
        """Fill the pair table; known answer: super skew-symmetry."""
        bad = []
        with tr.span("annihilation.pairs"):
            s = self.single
            for x in self.keys:
                for y in self.keys:
                    self.pair[x, y] = an.bracket(s[x], s[y])
            for x in self.keys:
                for y in self.keys:
                    sgn = -((-1) ** (an.parity(x) * an.parity(y)))
                    flipped = {k: c * sgn for k, c in self.pair[y, x].items()}
                    if self.pair[x, y] != flipped:
                        bad.append(("bracket-skew", x, y))
        return bad

    def jacobi(self, a, tr) -> list:
        """[a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]] for all b, c."""
        bad = []
        s, pair = self.single, self.pair
        with tr.span("annihilation.jacobi"):
            pa = an.parity(a)
            for b in self.keys:
                sgn = scal((-1) ** (pa * an.parity(b)))
                ab = pair[a, b]
                for c in self.keys:
                    lhs = an.bracket(s[a], pair[b, c])
                    rhs = an.bracket(ab, s[c])
                    for k, v in an.bracket(s[b], pair[a, c]).items():
                        _acc(rhs, k, sgn * v)
                    for k, v in rhs.items():
                        _acc(lhs, k, -v)
                    if lhs:
                        bad.append(("jacobi", a, b, c))
        tr.count("annihilation.triples", len(self.keys) ** 2)
        return bad

    def cocycle(self, a, tr) -> list:
        """Super skew-symmetry of psi against a, and the 2-cocycle identity
        psi(a,[b,c]) = psi([a,b],c) + (-1)^{p(a)p(b)} psi(b,[a,c])."""
        bad = []
        psi, pair = an.psi_default, self.pair

        def psi_left(x, elem):       # psi(x, elem), central term dropped
            total = ZERO
            for k, c in elem.items():
                if k != an.CKEY:
                    total = total + c * psi(x, k)
            return total

        def psi_right(elem, y):      # psi(elem, y), central term dropped
            total = ZERO
            for k, c in elem.items():
                if k != an.CKEY:
                    total = total + c * psi(k, y)
            return total

        with tr.span("annihilation.cocycle"):
            pa = an.parity(a)
            for b in self.keys:
                if psi(a, b) != -((-1) ** (pa * an.parity(b))) * psi(b, a):
                    bad.append(("skew", a, b))
            for b in self.keys:
                ab = pair[a, b]
                sgn = scal((-1) ** (pa * an.parity(b)))
                for c in self.keys:
                    lhs = psi_left(a, pair[b, c])
                    rhs = psi_right(ab, c) + sgn * psi_left(b, pair[a, c])
                    if lhs != rhs:
                        bad.append(("cocycle", a, b, c))
        tr.count("annihilation.triples", len(self.keys) ** 2)
        return bad


def _quotient(a, lie, singles, tr) -> list:
    """phi is a morphism: phi[a, b] = [phi a, phi b] for all b."""
    bad = []
    with tr.span("annihilation.quotient"):
        for b in lie:
            lhs = an.phi(an.lie_bracket_K4(singles[a], singles[b]))
            rhs = an.drop_central(
                an.bracket(an.phi(singles[a]), an.phi(singles[b])))
            if lhs != rhs:
                bad.append(("quotient-morphism", a, b))
    return bad


def _sweep_op(check: str, tr) -> Op:
    """annihilation.check_jacobi or check_cocycle run whole; known answer:
    no failures over every basis triple."""
    want = len(an.basis(SWEEP_TPOW, with_central=False)) ** 3

    def run():
        rep = getattr(an, check)(SWEEP_TPOW)
        tr.count("annihilation.triples", rep.triples_checked)
        if rep.ok and rep.triples_checked == want:
            return []
        return [(check, rep.triples_checked, rep.failures[:1])]

    return Op("annihilation-sweep", f"{check}(max_tpow={SWEEP_TPOW})", run)


def algebra_round(inp: Inputs, tr) -> list[Op]:
    tables = _AnnihilationTables()
    ops = [Op("annihilation-pairs", f"t-power <= {AN_TPOW}",
              lambda: tables.build(tr))]
    pair_gens = cf.k4_basis(PAIR_DPOW)
    triple_gens = cf.k4_basis(TRIPLE_DPOW)
    lie = an.lie_basis(LIE_YPOW)
    singles = {k: {k: ONE} for k in lie}
    ops += [Op("conformal-pairs", f"a={a}",
               lambda a=a: _conformal_pairs(a, pair_gens, tr))
            for a in inp.shuffled(pair_gens)]
    ops += [Op("conformal-jacobi", f"a={a}",
               lambda a=a: _conformal_jacobi(a, triple_gens, tr))
            for a in inp.shuffled(triple_gens)]
    ops += [Op("annihilation-jacobi", f"a={a}",
               lambda a=a: tables.jacobi(a, tr))
            for a in inp.shuffled(inp.half(tables.keys))]
    ops += [Op("annihilation-cocycle", f"a={a}",
               lambda a=a: tables.cocycle(a, tr))
            for a in inp.shuffled(inp.half(tables.keys))]
    ops += [Op("annihilation-quotient", f"a={a}",
               lambda a=a: _quotient(a, lie, singles, tr))
            for a in inp.shuffled(lie)]
    return ops + [_sweep_op("check_jacobi", tr), _sweep_op("check_cocycle", tr)]


def algebra_control(inp: Inputs, tr) -> Op:
    """One cocycle value perturbed and passed through the psi= argument of
    annihilation.check_cocycle, which must name the perturbed pair."""
    keys = an.basis(SWEEP_TPOW, with_central=False)
    x = inp.choice(keys)
    y = inp.choice(k for k in keys if k != x)

    def psi(a, b):
        val = an.psi_default(a, b)
        return val + ONE if (a, b) == (x, y) else val

    def run():
        return an.check_cocycle(SWEEP_TPOW, psi=psi).failures

    return Op("control", f"cocycle perturbed at {x}, {y}", run)


# ---------------------------------------------------------------------------
# classify: solver.solve against solver.expected_labels
# ---------------------------------------------------------------------------

CLASSIFY_MN = 1


def _classify_op(wt: Weight, d: int, dual: bool, expect: list) -> Op:
    def run():
        rep = sv.solve(wt, d, dual)
        got = sorted(l for l in rep.labels if l)
        if rep.kernel_dim != len(expect) or got != sorted(expect):
            return [("classify", _wt(wt), d, dual, rep.kernel_dim, got)]
        return []

    return Op("classify", f"{_wt(wt)} degree {d} dual={dual}", run)


def _table_weights(max_mn: int) -> list[Weight]:
    """Every weight at which some family has a member with m, n <= max_mn."""
    seen = {}
    for label, fam in sv.FAMILIES.items():
        for m in range(max_mn + 1):
            for n in range(max_mn + 1):
                wt = fam.weight_at(m, n)
                if label in sv.expected_labels(wt, fam.deg):
                    seen.setdefault(wt, None)
    return sorted(seen, key=lambda w: (w.m, w.n, w.mu_t.re, w.mu_C.re))


def classify_round(inp: Inputs, tr) -> list[Op]:
    shapes = [(m, n) for m in range(CLASSIFY_MN + 1)
              for n in range(CLASSIFY_MN + 1)]
    weights = _table_weights(CLASSIFY_MN)
    weights += [inp.off_list_weight(m, n) for m, n in shapes]
    # costly shapes first, so the first op is a substantial cold solve
    weights.sort(key=lambda w: (-w.m - w.n, -w.m))
    return [_classify_op(wt, d, dual, sv.expected_labels(wt, d))
            for wt in weights for d in (3, 2, 1) for dual in (False, True)]


def classify_control(inp: Inputs, tr) -> Op:
    """A table weight whose expected label set is deliberately emptied."""
    wt = inp.choice(_table_weights(0))
    d = next(d for d in (1, 2, 3) if sv.expected_labels(wt, d))
    return _classify_op(wt, d, False, [])


# ---------------------------------------------------------------------------
# action: closed form against the oracle, 2-paths, coadjoint degrees
# ---------------------------------------------------------------------------

ACTION_SHAPES = ((1, 0), (0, 1), (0, 0))
ACTION_THETA = 3           # unit vectors Theta^k eta_L (x) v with k < 3
GRAPH_MN = 2
COADJOINT_DEGREES = (1, 2, 3, 4, 5, 6)
COADJOINT_DIMS = (1, 4, 7, 8, 8, 8, 8)


def _act_op(key, wt: Weight, k: int, oracle_wt: Weight | None = None) -> Op:
    """act and act_oracle agree on every unit vector of Theta-power k."""
    owt = wt if oracle_wt is None else oracle_wt

    def run():
        bad = []
        for lmask in range(16):
            for mon in wt.keys():
                v = {(k, lmask, mon): ONE}
                if verma.act(key, v, wt) != verma.act_oracle(key, v, owt):
                    bad.append(("act", key, (k, lmask, mon), _wt(wt)))
        return bad

    return Op("act", f"key {key} at {_wt(wt)}, Theta^{k}", run)


def _path_op(first, second) -> Op:
    def run():
        phi1 = mo.morphism_from_family(first.label, *first.params)
        phi2 = mo.morphism_from_family(second.label, *second.params)
        if mo.compose_is_zero(phi2, phi1):
            return []
        return [("2-path", first.label, first.params,
                 second.label, second.params)]

    return Op("path", f"{first.label}{first.params} then "
                      f"{second.label}{second.params}", run)


def _coadjoint_op(d: int) -> Op:
    def run():
        rep = co.check_phi_iso(d)
        if rep.ok and rep.dims == COADJOINT_DIMS[:d + 1]:
            return []
        return [("coadjoint", d, rep.dims, rep.bijective)]

    return Op("coadjoint", f"degree {d}", run)


def action_round(inp: Inputs, tr) -> list[Op]:
    # the 2-paths do not depend on the seed and come first, so the first
    # op is the same cold composition under every seed
    graph = mo.build_complex_graph(GRAPH_MN)
    ops = [_path_op(a, b) for a, b in mo.two_paths(graph)]
    weights = [inp.generic_weight(m, n) for m, n in ACTION_SHAPES]
    keys = [(j, imask) for j in range(4) for imask in range(16)]
    ops += [_act_op(key, weights[i % len(weights)], k)
            for i, key in enumerate(keys) for k in range(ACTION_THETA)]
    return ops + [_coadjoint_op(d) for d in COADJOINT_DEGREES]


def action_control(inp: Inputs, tr) -> Op:
    """The oracle evaluated at a weight whose mu_t is off by one, against
    the closed form at the true weight; the generator t sees the change."""
    wt = inp.generic_weight(*inp.choice(ACTION_SHAPES))
    wrong = weight(wt.m, wt.n, wt.mu_t.re + 1, wt.mu_C.re)
    return _act_op((1, 0), wt, 0, oracle_wt=wrong)


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    round_ops: Callable        # (Inputs, tracer) -> list[Op]
    control: Callable          # (Inputs, tracer) -> Op that must fail


WORKLOADS = {
    "algebra": Workload(algebra_round, algebra_control),
    "classify": Workload(classify_round, classify_control),
    "action": Workload(action_round, action_control),
}
