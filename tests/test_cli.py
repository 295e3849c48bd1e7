import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k4verma
from k4verma import annihilation as an
from k4verma import conformal as cf
from k4verma import solver as sv
from k4verma.cli import main
from k4verma.exact import ONE

GOLDEN = Path(__file__).parent / "data" / "cli"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_golden(rep: dict, name: str) -> None:
    """The whole report, timing aside, equals tests/data/cli/<name>.json."""
    got = {k: v for k, v in rep.items() if k != "elapsed_s"}
    assert got == json.loads((GOLDEN / f"{name}.json").read_text())


def test_axioms_small_bounds_pass(capsys):
    code, rep = run(capsys, "axioms", "--max-tpow", "1", "--max-dpow", "0")
    assert code == 0 and rep["ok"]
    assert [c["name"] for c in rep["checks"]] == [
        "conformal-axioms", "derived-subalgebra-closure",
        "annihilation-jacobi", "cocycle-conditions", "quotient-morphism",
        "kernel-is-central", "cocycle-from-splitting"]
    assert_golden(rep, "axioms_small")


def test_corrupted_cocycle_is_detected(capsys):
    code, rep = run(capsys, "axioms", "--max-tpow", "0", "--max-dpow", "0",
                    "--corrupt-cocycle")
    assert code == 1 and not rep["ok"]
    failed = {c["name"] for c in rep["checks"] if not c["ok"]}
    assert failed == {"annihilation-jacobi", "cocycle-conditions",
                      "cocycle-from-splitting"}
    jac = next(c for c in rep["checks"] if c["name"] == "annihilation-jacobi")
    assert jac["counterexamples"]
    assert_golden(rep, "axioms_corrupt")


def test_kernel_is_central_failure_names_its_keys(capsys, monkeypatch):
    # negative control: the Lie bracket of the kernel key K with each basis
    # key b of y-power 1 becomes b instead of 0
    bracket = an.lie_bracket_K4

    def leaky(a, b):
        if a == {an.KERNEL_KEY: ONE} and all(k[2] == 1 for k in b):
            return dict(b)
        return bracket(a, b)

    monkeypatch.setattr(an, "lie_bracket_K4", leaky)
    code, rep = run(capsys, "axioms", "--max-tpow", "0", "--max-dpow", "0")
    assert code == 1
    failed = {c["name"]: c for c in rep["checks"] if not c["ok"]}
    assert set(failed) == {"quotient-morphism", "kernel-is-central"}
    assert failed["kernel-is-central"]["counterexamples"] == [
        "(0, 0, 1)", "(0, 1, 1)", "(0, 2, 1)"]


def test_search_reports_the_kernel(capsys):
    code, rep = run(capsys, "search", "--weight", "0,1,5/2,1/2",
                    "--degree", "3", "--dual-path")
    assert code == 0
    solver = rep["checks"][0]
    assert solver["kernel_dim"] == 1 and solver["labels"] == ["3b"]
    assert rep["checks"][1] == {"name": "dual-path-agrees", "ok": True}
    term = rep["kernel"][0][0]
    assert set(term) == {"theta", "eta", "monomial", "coeff"}
    assert set(term["coeff"]) == {"re", "im"}
    assert_golden(rep, "search_dual")


def test_search_off_list_weight_is_empty(capsys):
    code, rep = run(capsys, "search", "--weight", "0,0,2,0", "--degree", "2")
    assert code == 0
    assert rep["checks"][0]["kernel_dim"] == 0
    assert rep["kernel"] == []
    assert_golden(rep, "search_off_list")


def test_bad_weight_string_is_rejected():
    for text in ("0,0,2", "0,0,1/0,1"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--weight", text, "--degree", "1"])
        assert exc.value.code == 2, text


def test_verify_theorems_sweep(capsys):
    code, rep = run(capsys, "verify-theorems", "--max-mn", "1",
                    "--negatives", "2", "--seed", "7")
    assert code == 0 and rep["ok"] and rep["seed"] == 7
    names = [c["name"] for c in rep["checks"]]
    assert sum(1 for s in names if s.startswith("off-list")) == 2
    covered = {i for c in rep["checks"] for i in c.get("instances", [])}
    assert "1a(0,0)" in covered and "3a(1,0)" in covered
    assert_golden(rep, "verify_theorems")


def test_verify_theorems_names_its_witness(capsys, monkeypatch):
    # negative control: every theorem vector comes back multiplied by Theta,
    # so no kernel vector matches a label and no vector is singular
    build = sv.build_theorem_vector

    def shifted(label, m, n):
        wt, v = build(label, m, n)
        return wt, {(k + 1, l, mon): c for (k, l, mon), c in v.items()}

    monkeypatch.setattr(sv, "build_theorem_vector", shifted)
    code, rep = run(capsys, "verify-theorems", "--max-mn", "0",
                    "--negatives", "0")
    assert code == 1 and not rep["ok"]
    first = rep["checks"][0]
    assert first["name"] == "weight (0,0,0,0)" and not first["ok"]
    assert first["wrong_degrees"] == [
        {"degree": 1, "kernel_dim": 1, "expected": ["1a"], "labels": [None]}]
    assert [f["instance"] for f in first["failing_vectors"]] == ["1a(0,0)"]
    assert first["failing_vectors"][0]["generators"]
    for c in rep["checks"]:
        if c["name"].startswith("weight"):
            assert not c["ok"] and c["wrong_degrees"] \
                and c["failing_vectors"]


@pytest.mark.parametrize("label, field, corrupt, witnesses", [
    ("1b", "mu",
     lambda fam: lambda m, n: (fam.mu(m, n)[0] + 1, fam.mu(m, n)[1]),
     {"weight (1,0,5/2,-3/2)": (1, "1b(1,0)"),
      "weight (1,1,2,-2)": (1, "1b(1,1)")}),
    ("1c", "terms",
     lambda fam: ((-fam.terms[0][0], *fam.terms[0][1:]), *fam.terms[1:]),
     {"weight (1,1,3,0)": (1, "1c(1,1)")}),
    ("2b", "box", lambda fam: fam.box[:3] + (1,),
     {"weight (0,1,1,1)": (2, "2b(0,1)"),
      "weight (1,1,1/2,3/2)": (2, "2b(1,1)")}),
], ids=["1b-mu", "1c-terms", "2b-box"])
def test_verify_theorems_catches_a_corrupted_family(
        capsys, monkeypatch, label, field, corrupt, witnesses):
    # negative control, one per field of a family record: each corrupted
    # member must fail at its weight, naming the degree and the instance
    fam = sv.FAMILIES[label]
    monkeypatch.setitem(sv.FAMILIES, label,
                        fam._replace(**{field: corrupt(fam)}))
    code, rep = run(capsys, "verify-theorems", "--max-mn", "1",
                    "--negatives", "0")
    assert code == 1
    failed = {c["name"]: ([w["degree"] for w in c["wrong_degrees"]],
                          [f["instance"] for f in c["failing_vectors"]])
              for c in rep["checks"] if not c["ok"]}
    assert failed == {name: ([d], [inst])
                      for name, (d, inst) in witnesses.items()}


def test_off_list_entry_with_a_kernel_names_wrong_degrees(capsys,
                                                          monkeypatch):
    # negative control: 1b's mu_t is shifted by 1, so no family claims 1b's
    # true weight at (1, 0); an off-list entry there finds its kernel
    fam = sv.FAMILIES["1b"]
    true_weight = fam.weight_at(1, 0)
    monkeypatch.setitem(sv.FAMILIES, "1b", fam._replace(
        mu=lambda m, n: (fam.mu(m, n)[0] + 1, fam.mu(m, n)[1])))
    monkeypatch.setattr(sv, "off_list_weights", lambda *a: [true_weight])
    code, rep = run(capsys, "verify-theorems", "--max-mn", "0",
                    "--negatives", "1")
    assert code == 1
    assert [c for c in rep["checks"] if not c["ok"]] == [
        {"name": "off-list (1,0,3/2,-3/2)", "ok": False,
         "wrong_degrees": [{"degree": 1, "kernel_dim": 1, "expected": [],
                            "labels": [None]}]}]


@pytest.mark.parametrize("label, box, weights", [
    ("2b", (0, 0, 0, 0), ["(1,0,1/2,3/2)"]),
    ("1b", (2, float("inf"), 0, float("inf")),
     ["(1,0,3/2,-3/2)", "(1,1,1,-2)"]),
], ids=["2b-cut-to-a-point", "1b-lower-m-raised"])
def test_verify_theorems_catches_a_narrowed_box(capsys, monkeypatch, label,
                                                box, weights):
    # negative control: a narrowed box drops members from the table sweep,
    # and the box-edge entries one step past the new bound find them
    fam = sv.FAMILIES[label]
    monkeypatch.setitem(sv.FAMILIES, label, fam._replace(box=box))
    code, rep = run(capsys, "verify-theorems", "--max-mn", "1",
                    "--negatives", "0")
    assert code == 1
    failed = {c["name"]: c for c in rep["checks"] if not c["ok"]}
    assert set(failed) == {f"box-edge {label} {w}" for w in weights}
    for c in failed.values():
        assert c["wrong_degrees"] == [{"degree": fam.deg, "kernel_dim": 1,
                                       "expected": [], "labels": [None]}]


def test_complexes_writes_graph_files(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, rep = run(capsys, "complexes", "--max-mn", "1", "--out", str(out))
    assert code == 0 and rep["ok"]
    graph = json.loads(out.read_text())
    assert graph["max_mn"] == 1 and graph["duality_involution_ok"]
    assert (tmp_path / "g.dot").read_text().startswith("digraph")
    rep["files"] = {k: os.path.relpath(v, tmp_path)
                    for k, v in rep["files"].items()}
    assert_golden(rep, "complexes")
    assert out.read_text() == (GOLDEN / "complexes_graph.json").read_text()
    assert (tmp_path / "g.dot").read_text() == \
        (GOLDEN / "complexes_graph.dot").read_text()


def test_coadjoint_dimension_prefix(capsys):
    code, rep = run(capsys, "coadjoint", "--max-degree", "3")
    assert code == 0
    dims = rep["checks"][0]["dims"]
    assert dims == [1, 4, 7, 8]
    assert_golden(rep, "coadjoint")


def test_out_writes_the_report(capsys, tmp_path):
    # --out sends the report to the file and prints nothing
    path = tmp_path / "coadjoint.json"
    assert main(["coadjoint", "--max-degree", "0", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    code, rep = run(capsys, "coadjoint", "--max-degree", "0")
    assert code == 0
    written = json.loads(path.read_text())
    assert written.pop("elapsed_s") >= 0
    assert written == {k: v for k, v in rep.items() if k != "elapsed_s"}


def usage_error(cwd, *argv: str) -> str:
    """stderr of a CLI run that must end as a usage error: exit code 2,
    no traceback and no report."""
    src = os.path.dirname(os.path.dirname(k4verma.__file__))
    proc = subprocess.run([sys.executable, "-m", "k4verma.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 2 and proc.stdout == "", argv
    assert "Traceback" not in proc.stderr, argv
    return proc.stderr


def test_nonpositive_degree_is_a_usage_error(tmp_path):
    for degree in ("0", "-3"):
        assert "positive integer" in usage_error(
            tmp_path, "search", "--weight", "0,0,2,0", "--degree", degree)


def test_quotient_morphism_bound_follows_max_tpow(capsys, monkeypatch):
    # the triple sweeps are stubbed: only the quotient check's bound is read
    monkeypatch.setattr(an, "check_jacobi", lambda *a, **k: cf.AxiomReport())
    monkeypatch.setattr(an, "check_cocycle", lambda *a, **k: cf.AxiomReport())
    code, rep = run(capsys, "axioms", "--max-tpow", "4", "--max-dpow", "0")
    assert code == 0
    quo = next(c for c in rep["checks"] if c["name"] == "quotient-morphism")
    assert quo == {"name": "quotient-morphism", "ok": True,
                   "pairs": 96 ** 2, "max_ypow": 5}


def test_derived_closure_bound_follows_max_dpow(capsys, monkeypatch):
    # the sweeps are stubbed: only the closure check's bound is read
    for mod, name in ((cf, "check_conformal_axioms"), (an, "check_jacobi"),
                      (an, "check_cocycle"), (an, "check_quotient_morphism")):
        monkeypatch.setattr(mod, name, lambda *a, **k: cf.AxiomReport())
    closure, bounds = cf.check_derived_closure, []

    def recorded(*args):
        bounds.append(args)
        return closure(*args)

    monkeypatch.setattr(cf, "check_derived_closure", recorded)
    code, rep = run(capsys, "axioms", "--max-tpow", "0", "--max-dpow", "1")
    assert code == 0 and bounds == [(1,)]
    entry = next(c for c in rep["checks"]
                 if c["name"] == "derived-subalgebra-closure")
    assert entry == {"name": "derived-subalgebra-closure", "ok": True,
                     "max_dpow": 1}


def test_negative_bounds_are_usage_errors(tmp_path):
    out = ["--out", str(tmp_path / "missing" / "x.json")]
    neg, gone = "non-negative integer", "does not exist"
    for argv, message in (
            (["axioms", "--max-tpow", "-2", "--max-dpow", "0"], neg),
            (["axioms", "--max-tpow", "0", "--max-dpow", "-1"], neg),
            (["verify-theorems", "--max-mn", "-1", "--negatives", "0"], neg),
            (["verify-theorems", "--max-mn", "0", "--negatives", "-1"], neg),
            (["complexes", "--max-mn", "-1"], neg),
            (["coadjoint", "--max-degree", "-1"], neg),
            (["search", "--weight=-1,0,1,2", "--degree", "1"], "M, N >= 0"),
            (["coadjoint", "--max-degree", "0", *out], gone),
            (["complexes", "--max-mn", "0", *out], gone),
            (["axioms", "--max-tpow", "0", "--out", str(tmp_path)],
             "is a directory"),
            # the DOT file goes to --out with its suffix replaced by .dot
            (["complexes", "--max-mn", "0", "--out", str(tmp_path / "g.dot")],
             "is where the DOT file goes"),
            # 107 weights next to a formula at (0, 0) are claimed by none
            (["verify-theorems", "--max-mn", "0", "--negatives", "108"],
             "108 exceeds the 107 off-list weights")):
        assert message in usage_error(tmp_path, *argv), argv
    assert list(tmp_path.iterdir()) == []


def test_a_directory_at_the_dot_path_is_a_usage_error(tmp_path):
    # the DOT path is checked as --out is, before anything is written
    for out, dot in ((["--out", str(tmp_path / "g.json")],
                      str(tmp_path / "g.dot")), ([], "graph.dot")):
        (tmp_path / dot).mkdir()
        assert f"the DOT path: {dot!r} is a directory" in usage_error(
            tmp_path, "complexes", "--max-mn", "0", *out), out
    dirs = sorted(tmp_path.iterdir())
    assert [p.name for p in dirs] == ["g.dot", "graph.dot"]
    assert not any(any(p.iterdir()) for p in dirs)


def test_empty_out_path_is_a_usage_error(tmp_path):
    # an empty --out would otherwise fall back to stdout or to graph.json
    for argv in (["axioms", "--max-tpow", "0", "--max-dpow", "0"],
                 ["search", "--weight", "0,0,0,0", "--degree", "1"],
                 ["verify-theorems", "--max-mn", "0", "--negatives", "0"],
                 ["complexes", "--max-mn", "0"],
                 ["coadjoint", "--max-degree", "0"]):
        assert "the path is empty" in usage_error(tmp_path, *argv, "--out",
                                                  ""), argv
    assert list(tmp_path.iterdir()) == []


def test_quotient_morphism_failure_names_its_pairs(capsys, monkeypatch):
    # negative control: phi doubles xi_1, so [xi_1, xi_1] = -xi_empty breaks
    phi = an.phi
    xi1 = (0, 1)

    def bad_phi(a):
        return {k: c * 2 if k == xi1 else c for k, c in phi(a).items()}

    monkeypatch.setattr(an, "phi", bad_phi)
    code, rep = run(capsys, "axioms", "--max-tpow", "0", "--max-dpow", "0")
    assert code == 1
    quo = next(c for c in rep["checks"] if c["name"] == "quotient-morphism")
    assert not quo["ok"] and quo["max_ypow"] == 1
    failures = an.check_quotient_morphism(1).failures
    assert len(failures) > 3
    assert quo["counterexamples"] == [repr(f) for f in failures[:3]]
