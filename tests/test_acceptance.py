"""End-to-end acceptance run, one test per numbered criterion.

Everything here is exact: integer and Gaussian-rational arithmetic only,
no tolerances.  Each test prints a single summary line

    criterion NN [PASS|FAIL] <what was checked>

(visible with pytest -s, or in the captured output of a failure) and then
asserts, so the pytest verdict and the printed line always agree.

Criteria 01-03, 06-08, 10 and 11 read the entries of a CLI report made
through `k4verma.cli.main` and assert each is ok and swept its known size.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

from k4verma import annihilation as an
from k4verma import coadjoint as co
from k4verma import conformal as cf
from k4verma import morphisms as mo
from k4verma import solver as sv
from k4verma import verma
from k4verma.cli import main
from k4verma.exact import ONE, axpy, scal
from k4verma.grassmann import MASK_ALL, STAR, mask_of
from k4verma.verma import act, act_oracle, dual_lambda_action, theta_mul, \
    transform_T
from k4verma.weights import act_g0, weight

F = Fraction
NEGATIVE_SEED = 1156


def _report(num: int, desc: str, failures: list) -> None:
    ok = not failures
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: first failures {failures[:5]}"


def _fails(criterion, *args) -> str:
    """Run a criterion that must fail, without its summary line, and
    return its assertion message."""
    with contextlib.redirect_stdout(io.StringIO()), \
            pytest.raises(AssertionError) as exc:
        criterion(*args)
    return str(exc.value)


def _run_cli(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def axioms():
    return _run_cli("axioms", "--max-tpow", "3", "--max-dpow", "2")


def _entry_failures(report: dict, sweeps: dict) -> list:
    """Each named entry of a report that is not ok with the known sweep
    sizes given for it, next to what was expected."""
    entries = {c["name"]: c for c in report["checks"]}
    failures = []
    for name, sweep in sweeps.items():
        want = dict(sweep, ok=True)
        if not want.items() <= entries[name].items():
            failures.append(f"{entries[name]}, expected {want}")
    return failures


def test_criterion_01_conformal_axioms(axioms):
    failures = _entry_failures(axioms, {
        "conformal-axioms": {"pairs": 48 ** 2, "triples": 48 ** 3},
        "derived-subalgebra-closure": {"max_dpow": 2}})
    _report(1, "conformal axioms exact on all basis pairs and triples, "
               "derivative powers <= 2", failures)


def test_criterion_01_fails_on_a_flipped_bracket(flipped_xi1_xi2):
    # negative control: [xi_1 lambda xi_2] changes sign; the sweep must
    # name the skew and Jacobi failures on that pair, and the criterion
    # must fail on the entry, whose counterexamples are repr strings, so
    # _report escapes their quotes; the Lie route reads the same bracket,
    # so the quotient morphism fails too
    short = _run_cli("axioms", "--max-tpow", "0", "--max-dpow", "0")
    entries = {c["name"]: c for c in short["checks"]}
    assert entries["conformal-axioms"]["counterexamples"] == [
        "('skew', (0, 1), (0, 2))", "('skew', (0, 2), (0, 1))",
        "('jacobi', (0, 1), (0, 1), (0, 2))"]
    assert {name for name, c in entries.items() if not c["ok"]} \
        == {"conformal-axioms", "quotient-morphism"}
    assert r"\'name\': \'conformal-axioms\', \'ok\': False" \
        in _fails(test_criterion_01_conformal_axioms, short)


def test_criterion_02_annihilation_jacobi_and_cocycle(axioms):
    failures = _entry_failures(axioms, {
        "annihilation-jacobi": {"triples": 64 ** 3},
        "cocycle-conditions": {"pairs_and_triples": 64 ** 2 + 64 ** 3},
        "cocycle-from-splitting": {"pairs": 256}})
    _report(2, "super-Jacobi with central term on all triples, t-power <= 3; "
               "2-cocycle conditions, also from the splitting", failures)


def test_criterion_02_fails_on_a_short_jacobi_sweep(monkeypatch):
    # negative control: the Jacobi sweep checks nothing, so its entry reads
    # ok with 0 triples; the criterion must still fail and name the sweep
    monkeypatch.setattr(an, "check_jacobi", lambda *a, **k: cf.AxiomReport())
    short = _run_cli("axioms", "--max-tpow", "0", "--max-dpow", "0")
    jac = {"name": "annihilation-jacobi", "ok": True, "triples": 0,
           "counterexamples": []}
    assert jac in short["checks"]
    assert f"{jac}, expected {{'triples': {64 ** 3}, 'ok': True}}" \
        in _fails(test_criterion_02_annihilation_jacobi_and_cocycle, short)


def test_criterion_03_quotient_morphism_and_kernel(axioms):
    failures = _entry_failures(axioms, {
        "quotient-morphism": {"pairs": 80 ** 2, "max_ypow": 4},
        "kernel-is-central": {}})
    _report(3, "quotient morphism on all pairs, y-power <= 4; kernel is "
               "exactly the central line", failures)


def test_criterion_03_fails_when_phi_merges_two_keys(monkeypatch):
    # negative control: phi sends xi_2 where it sends xi_1, so phi is not
    # injective off the kernel line; the entry must fail naming both keys,
    # and the criterion must fail on that entry
    phi, xi1, xi2 = an.phi, (0, 1, 0), (0, 2, 0)

    def merged(a):
        return phi({xi1: ONE} if a == {xi2: ONE} else a)

    monkeypatch.setattr(an, "phi", merged)
    short = _run_cli("axioms", "--max-tpow", "0", "--max-dpow", "0")
    entry = {"name": "kernel-is-central", "ok": False,
             "counterexamples": [repr(xi1), repr(xi2)]}
    assert entry in short["checks"]
    assert f"{entry}, expected {{'ok': True}}" \
        in _fails(test_criterion_03_quotient_morphism_and_kernel, short)


_SAMPLED_MU = [
    (F(7, 3), F(-5, 4)), (F(-1, 2), F(3)), (F(0), F(1, 3)),
    (F(5, 2), F(-1, 2)), (F(2), F(0)), (F(-3, 7), F(2, 5)),
    (F(1), F(-1)), (F(9, 4), F(1, 6)), (F(-2), F(-7, 3)),
]


def _xi_op(j: int, i: int, fvec: dict, wt) -> dict:
    ps, pm = STAR[1 << (j - 1)][1 << (i - 1)]
    out: dict = {}
    for mon, c in fvec.items():
        axpy(out, c * scal(ps), act_g0((0, pm), wt, mon))
    return out


def _lift(k: int, lmask: int, fvec: dict) -> dict:
    return {(k, lmask, mk): c for mk, c in fvec.items()}


def _worked_example_failures() -> list:
    # T(m) = Theta^2 eta_13 (x) v13 + eta_2 (x) v20, acted on by xi_2;
    # the expected lambda expansion is transcribed term by term.
    wt = weight(1, 1, F(7, 3), F(-5, 4))
    v13 = {(0, 0): scal(2), (1, 1): scal(F(-3, 5))}
    v20 = {(1, 0): scal(1), (0, 1): scal(F(7, 2))}
    m13, m2 = mask_of((1, 3)), mask_of((2,))
    m12, m23, m24 = mask_of((1, 2)), mask_of((2, 3)), mask_of((2, 4))
    m123, m134 = mask_of((1, 2, 3)), mask_of((1, 3, 4))

    tm = {}
    axpy(tm, ONE, _lift(2, m13, v13).items())
    axpy(tm, ONE, _lift(0, m2, v20).items())
    lhs = dual_lambda_action(m2, tm, wt)

    inner0 = _lift(1, m123, v13)
    inner1 = {}
    axpy(inner1, -wt.mu_t, _lift(0, m123, v13).items())
    axpy(inner1, ONE, _lift(0, m123, v13).items())
    axpy(inner1, ONE, _lift(0, m134, _xi_op(2, 4, v13, wt)).items())
    rhs: dict = {}
    for lp, vec in ((0, inner0), (1, inner1)):
        axpy(rhs.setdefault(lp + 2, {}), scal(-1), vec.items())
        axpy(rhs.setdefault(lp + 1, {}), scal(-2), theta_mul(vec, 1).items())
        axpy(rhs.setdefault(lp, {}), scal(-1), theta_mul(vec, 2).items())
    axpy(rhs.setdefault(0, {}), ONE, _lift(0, 0, v20).items())
    lam1 = rhs.setdefault(1, {})
    axpy(lam1, scal(-1), _lift(0, m12, _xi_op(1, 2, v20, wt)).items())
    axpy(lam1, ONE, _lift(0, m23, _xi_op(3, 2, v20, wt)).items())
    axpy(lam1, ONE, _lift(0, m24, _xi_op(4, 2, v20, wt)).items())
    axpy(rhs.setdefault(2, {}), wt.mu_C, _lift(0, MASK_ALL, v20).items())

    rhs = {lp: vec for lp, vec in rhs.items() if vec}
    if lhs != rhs:
        return [f"lambda^{lp}: got {lhs.get(lp)}, expected {rhs.get(lp)}"
                for lp in sorted(set(lhs) | set(rhs))
                if lhs.get(lp) != rhs.get(lp)]
    return []


def test_criterion_04_closed_form_equals_commutation_oracle():
    failures = []
    boxes = [(m, n) for m in range(3) for n in range(3)]
    for (m, n), (mt, mc) in zip(boxes, _SAMPLED_MU):
        wt = weight(m, n, mt, mc)
        for j in range(4):
            for imask in range(16):
                key = (j, imask)
                for k in range(3):
                    for lmask in range(16):
                        for mon in wt.keys():
                            v = {(k, lmask, mon): ONE}
                            if act(key, v, wt) != act_oracle(key, v, wt):
                                failures.append((key, (k, lmask, mon),
                                                 (m, n, mt, mc)))
    failures += _worked_example_failures()
    _report(4, "closed-form lambda action equals the commutation oracle on "
               "the full sweep; worked expansion matches term by term",
            failures)


def test_criterion_05_high_t_powers_annihilate():
    wt = weight(2, 1, F(7, 3), F(-5, 4))
    failures = []
    for m in (3, 4, 5):
        for imask in range(16):
            for lmask in range(16):
                for mon in wt.keys():
                    got = act((m, imask), {(0, lmask, mon): ONE}, wt)
                    want = {}
                    if m == 3 and imask == 0 and lmask == MASK_ALL:
                        want = {(0, 0, mon): scal(-6) * wt.mu_C}
                    if got != want:
                        failures.append((m, imask, lmask, mon))
    _report(5, "t^m xi_I kills every Theta-free basis vector for m >= 3, "
               "except t^3 on the top monomial giving -6 (x) Cv", failures)


@pytest.mark.parametrize("lmask, lp, tok, criterion, named", [
    (0, 1, (1, 0), test_criterion_04_closed_form_equals_commutation_oracle,
     "first failures [((1, 0), "),
    (MASK_ALL, 3, an.CKEY, test_criterion_05_high_t_powers_annihilate,
     "first failures [(3, 0, 15, (0, 0))"),
], ids=["04-t-term", "05-C-term"])
def test_criteria_04_and_05_fail_on_a_flipped_primal_term(
        fresh_solver_caches, monkeypatch, lmask, lp, tok, criterion, named):
    # negative control: the lambda^lp term with token tok of xi_empty on
    # eta_L changes sign in _primal_base, so t acts wrongly on the vacuum,
    # or t^3 gives +6 (x) Cv on the top monomial; each criterion must fail
    # naming the key
    base = verma._primal_base

    def flipped(imask, l):
        return tuple(tuple((-c if (imask, l, p, t) == (0, lmask, lp, tok)
                            else c, k, l2, t) for c, k, l2, t in terms)
                     for p, terms in enumerate(base(imask, l)))

    monkeypatch.setattr(verma, "_primal_base", flipped)
    assert named in _fails(criterion)


@pytest.fixture(scope="module")
def theorems():
    return _run_cli("verify-theorems", "--max-mn", "3", "--negatives", "30",
                    "--seed", str(NEGATIVE_SEED))


# the entries of each kind in `verify-theorems --max-mn 3 --negatives 30`
_SWEEP = {"weight": 63, "box-edge": 57, "off-list": 30}


def _sweep_failures(report: dict) -> list:
    """Each entry of a verify-theorems report that is not ok, and each kind
    of entry whose count is not its known size."""
    failures = [c for c in report["checks"] if not c["ok"]]
    for kind, size in _SWEEP.items():
        count = sum(c["name"].startswith(kind + " ") for c in report["checks"])
        if count != size:
            failures.append(f"{count} {kind} entries, expected {size}")
    return failures


def _instances(report: dict, deg: int) -> dict:
    """The table instances of the families of degree deg, by entry name."""
    out: dict = {}
    for c in report["checks"]:
        for inst in c.get("instances", []):
            if sv.FAMILIES[inst.split("(")[0]].deg == deg:
                out.setdefault(c["name"], []).append(inst)
    return out


def test_criterion_06_degree_one_classification(theorems):
    failures = _sweep_failures(theorems)
    count = sum(map(len, _instances(theorems, 1).values()))
    if count != 49:
        failures.append(f"expected 49 degree-1 instances, saw {count}")
    _report(6, "degree-1 kernels are one-dimensional and match the tables "
               "for all (m,n) <= (3,3), on both routes; 30 seeded off-list "
               "weights are empty", failures)


def test_criterion_07_degree_two_classification(theorems):
    failures = _sweep_failures(theorems)
    count = sum(map(len, _instances(theorems, 2).values()))
    if count != 12:
        failures.append(f"expected 12 degree-2 instances, saw {count}")
    entries = {c["name"]: c for c in theorems["checks"]}
    for name in ("box-edge 2c (1,0,5/2,-1/2)", "box-edge 2d (0,1,5/2,1/2)"):
        if entries.get(name, {}).get("kernel_dim") != 0:
            failures.append(f"boundary {name}: {entries.get(name)}")
    # the parameter-4 members lie past the report's m, n <= 3
    for label in ("2a", "2b", "2c", "2d"):
        m, n = (0, 4) if label in ("2a", "2d") else (4, 0)
        rep = sv.classify(sv.FAMILIES[label].weight_at(m, n))[2]
        if rep.kernel_dim != 1 or rep.labels != (label,):
            failures.append((label, 4, rep.kernel_dim, rep.labels))
    _report(7, "degree-2 kernels match the four families for parameters "
               "<= 4, vanish at the boundary parameter and off the list",
            failures)


def test_criterion_08_degree_three_classification(theorems):
    failures = _sweep_failures(theorems)
    threes = _instances(theorems, 3)
    expected = {"weight (1,0,5/2,-1/2)": ["3a(1,0)"],
                "weight (0,1,5/2,1/2)": ["3b(0,1)"]}
    if threes != expected:
        failures.append(f"degree-3 instances {threes}, expected {expected}")
    _report(8, "exactly two degree-3 singular vectors over the full sweep, "
               "matching the two stated ones", failures)


@pytest.mark.parametrize("corrupt, negatives, named", [
    (True, "30", "{'name': 'weight (1,0,5/2,-3/2)', 'ok': False"),
    (False, "29", "29 off-list entries, expected 30"),
], ids=["1b-mu-shifted", "29-negatives"])
def test_criteria_06_to_08_fail_on_a_wrong_report(monkeypatch, corrupt,
                                                  negatives, named):
    # negative control: 1b's mu_t is shifted by 1, so its members fail at
    # their weights, or the report draws one off-list weight too few; each
    # criterion must fail and name the failing entry or size
    if corrupt:
        fam = sv.FAMILIES["1b"]
        monkeypatch.setitem(sv.FAMILIES, "1b", fam._replace(
            mu=lambda m, n: (fam.mu(m, n)[0] + 1, fam.mu(m, n)[1])))
    rep = _run_cli("verify-theorems", "--max-mn", "3", "--negatives",
                   negatives, "--seed", str(NEGATIVE_SEED))
    for criterion in (test_criterion_06_degree_one_classification,
                      test_criterion_07_degree_two_classification,
                      test_criterion_08_degree_three_classification):
        assert named in _fails(criterion, rep), criterion.__name__


def test_criteria_06_and_08_fail_on_a_missing_instance(theorems):
    # negative control: the report's entries stay ok but lose the instances
    # 1a(0,0), 2c(2,0) and 3b(0,1); each criterion must fail naming what it
    # counted
    rep = copy.deepcopy(theorems)
    for c in rep["checks"]:
        if "instances" in c:
            c["instances"] = [i for i in c["instances"]
                              if i not in ("1a(0,0)", "2c(2,0)", "3b(0,1)")]
    for criterion, named in (
            (test_criterion_06_degree_one_classification,
             "expected 49 degree-1 instances, saw 48"),
            (test_criterion_07_degree_two_classification,
             "expected 12 degree-2 instances, saw 11"),
            (test_criterion_08_degree_three_classification,
             "degree-3 instances {'weight (1,0,5/2,-1/2)': ['3a(1,0)']}")):
        assert named in _fails(criterion, rep), criterion.__name__


def test_criterion_09_no_higher_degrees():
    failures = []
    sweep = list(sv.table_weights(3)) \
        + sv.off_list_weights(3, 30, NEGATIVE_SEED)
    for wt in sweep:
        for d in (4, 5):
            if sv.solve(wt, d).kernel_dim != 0:
                failures.append((wt, d))
    for label, mn in (("3a", (1, 0)), ("2d", (0, 4))):
        wt, vec = sv.build_theorem_vector(label, *mn)
        deep = sv.theta_ansatz_kernel(wt, 5)
        # T of the family vector and eta_1234 (x) the top monomial; each
        # term has Theta power <= 1 and the reduced shape, so equality
        # reproduces the bound and the coefficient reductions
        tvec, top = transform_T(vec), {(0, MASK_ALL, mn): ONE}
        want = sv._canonical([tvec, top], sorted({*tvec, *top}))
        if deep != want:
            failures.append((label, f"ansatz kernel of dimension "
                                    f"{len(deep)} is not T(family "
                                    f"vector) and eta_1234 (x) top"))
        if deep != sv.theta_ansatz_kernel(wt, 3):
            failures.append((label, "ansatz depth changes the kernel"))
    _report(9, "degree-4 and degree-5 kernels vanish everywhere swept; "
               "the Theta-ansatz to the fifth power is spanned by T(family "
               "vector) and eta_1234 (x) top, and reproduces the bound and "
               "the coefficient reductions", failures)


def test_criterion_09_fails_on_a_dual_action_without_lambda_zero(
        fresh_solver_caches, monkeypatch):
    # negative control: the dual action, which the Theta-ansatz solves
    # through, loses every lambda^0 coefficient; the kernel grows at both
    # weights, and the criterion must fail naming each label
    dual = sv.dual_lambda_action

    def no_lambda_zero(imask, v, wt):
        return {lp: vec for lp, vec in dual(imask, v, wt).items() if lp}

    monkeypatch.setattr(sv, "dual_lambda_action", no_lambda_zero)
    msg = _fails(test_criterion_09_no_higher_degrees)
    for label in ("3a", "2d"):
        assert f"('{label}', 'ansatz kernel of dimension" in msg


def test_criterion_10_complexes_and_duality(tmp_path):
    rep = _run_cli("complexes", "--max-mn", "3",
                   "--out", str(tmp_path / "graph.json"))
    failures = _entry_failures(rep, {
        "duality-involution": {}, "supertrace-t": {}, "supertrace-C": {},
        "two-path-compositions-vanish": {}})
    paths = next(c["paths"] for c in rep["checks"]
                 if c["name"] == "two-path-compositions-vanish")
    if not paths:
        failures.append("no 2-paths found in the box")
    _report(10, f"all {paths} directed 2-paths compose to zero in the "
                "(m,n) <= 3 graph; duality involution and supertraces",
            failures)


def test_criterion_10_fails_on_a_negated_lowering(monkeypatch, tmp_path):
    # negative control: f_x, which evaluate applies to reach each monomial
    # of the source, changes sign; the compositions that lower through an
    # odd number of f_x no longer vanish, and the criterion must fail
    # naming the first such path
    monkeypatch.setattr(mo, "_F_X", {k: -c for k, c in mo._F_X.items()})
    rep = mo.check_two_paths(mo.build_complex_graph(3))
    assert (rep.pairs_checked, len(rep.failures)) == (30, 11)
    msg = _fails(test_criterion_10_complexes_and_duality, tmp_path)
    assert "'name': 'two-path-compositions-vanish', 'ok': False, " \
           "'paths': 30, 'counterexamples': [['1b', [1, 0], '2c', [3, 0]]" \
        in msg


@pytest.fixture(scope="module")
def coadjoint():
    return _run_cli("coadjoint", "--max-degree", "6")


def test_criterion_11_coadjoint_identification(coadjoint):
    failures = _entry_failures(coadjoint, {
        "degreewise-bijective": {"dims": [1, 4, 7, 8, 8, 8, 8],
                                 "max_degree": 6},
        "equivariance-sampled": {"max_degree": 4},
        "linearity": {"max_degree": 4},
        "iterated-action-nonzero": {"max_theta_pow": 3},
        "raising-returns-to-theta-star": {"max_tpow": 3},
        "t-scales-theta-star": {},
        "action-is-a-representation": {"triples": 80 * 5 * 60},
        "module-has-no-singular-vectors": {"degrees": [1, 2, 3]}})
    _report(11, "coadjoint module identified degreewise up to degree 6; "
                "nonvanishing checks pass; the action is a representation "
                "on every triple swept; the module has no singular "
                "vectors of degrees 1-3", failures)


@pytest.mark.parametrize("corrupt, failing, witnesses", [
    (lambda xk, fk, entry: () if xk == (0, 2) else entry,
     {"degreewise-bijective", "equivariance-sampled",
      "iterated-action-nonzero", "action-is-a-representation"},
     {"iterated-action-nonzero": ["(0, 2)", "(1, 2)", "(2, 2)"]}),
    (lambda xk, fk, entry: tuple((yk, -c) for yk, c in entry)
     if (xk, fk) == ((0, 1), (0, 0)) else entry,
     {"equivariance-sampled", "action-is-a-representation"}, {}),
    (lambda xk, fk, entry: tuple((yk, -c) for yk, c in entry)
     if (xk, fk) == ((0, 0), (2, 0)) else entry,
     {"action-is-a-representation"}, {}),
    (lambda xk, fk, entry: tuple((yk, -c) for yk, c in entry)
     if (xk, fk) == ((2, 1), (1, 1)) else entry,
     {"action-is-a-representation"}, {}),
    (lambda xk, fk, entry: () if (xk, fk) == ((2, 1), (1, 1)) else entry,
     {"raising-returns-to-theta-star", "action-is-a-representation"},
     {"raising-returns-to-theta-star": ["(1, 1)"]}),
], ids=["xi2-entries-dropped", "one-xi1-sign-flipped",
        "one-theta-sign-flipped", "one-raising-sign-flipped",
        "one-raising-entry-dropped"])
def test_criterion_11_fails_on_a_corrupted_pairing_table(
        fresh_solver_caches, monkeypatch, corrupt, failing, witnesses):
    # negative control: the table function itself is corrupted, ahead of
    # its cache, so every coadjoint action reads the bad entry; the caches
    # are emptied first, so no image of phi built from the true table is
    # served; each non-vanishing check names its first failing keys
    pairing = co._pairing
    monkeypatch.setattr(co, "_pairing",
                        lambda xk, fk: corrupt(xk, fk, pairing(xk, fk)))
    rep = _criterion_11_fails_naming(failing)
    assert {c["name"]: c["counterexamples"] for c in rep["checks"]
            if c["name"] in witnesses} == witnesses


@pytest.mark.parametrize("flipped", [(1, 0), (0, mask_of((2, 4))),
                                     (2, mask_of((1, 2)))],
                         ids=["theta", "eta24", "degree-6"])
def test_criterion_11_fails_on_a_flipped_phi_image(
        fresh_solver_caches, monkeypatch, flipped):
    # negative control for the table of phi's basis-key images: the one
    # image of Theta^k eta_L (x) 1 changes sign as it is read, so the
    # images built from it by the recursion carry the flip too; every
    # such key of degree 1..6 fails equivariance (at (0, 0) the flip is
    # -phi, itself a module map)
    phi_key = co._phi_key

    def flip(k, lmask):
        img = phi_key(k, lmask)
        if (k, lmask) != flipped:
            return img
        return tuple((fk, -c) for fk, c in img)

    monkeypatch.setattr(co, "_phi_key", flip)
    _criterion_11_fails_naming({"equivariance-sampled"})


def _criterion_11_fails_naming(failing: set) -> dict:
    # the run must exit 1 and the criterion must fail naming each failing
    # entry; the report is returned
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["coadjoint", "--max-degree", "6"])
    rep = json.loads(out.getvalue())
    assert code == 1
    assert {c["name"] for c in rep["checks"] if not c["ok"]} == failing
    msg = _fails(test_criterion_11_coadjoint_identification, rep)
    for name in failing:
        assert f"{{'name': '{name}', 'ok': False" in msg
    return rep
