"""Command line surface.

Every subcommand prints one JSON report to stdout (or --out) and exits
nonzero when any contained check fails.  Reports list their checks in a
fixed order and serialize exact scalars as {"re": "p/q", "im": "p/q"},
so identical invocations produce identical output apart from timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import annihilation as an
from . import coadjoint as co
from . import conformal as cf
from . import morphisms as mo
from . import solver as sv
from .exact import ONE, scal
from .grassmann import indices_of
from .weights import Weight, weight


def _check(name: str, ok: bool, **payload) -> dict:
    entry = {"name": name, "ok": bool(ok)}
    entry.update(payload)
    return entry


def _named(failures: list) -> dict:
    """The first 3 failures as `counterexamples`, on failure only."""
    if not failures:
        return {}
    return {"counterexamples": [repr(f) for f in failures[:3]]}


def _finish(args, checks: list, t0: float, extra: dict | None = None,
            stdout: bool = False) -> int:
    report = {
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items())
                    if k not in ("command", "func", "out")
                    and isinstance(v, (int, str, bool, type(None)))},
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "elapsed_s": round(time.time() - t0, 3),
    }
    if extra:
        report.update(extra)
    text = json.dumps(report, indent=2)
    if args.out and not stdout:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["ok"] else 1


def _wt_payload(wt: Weight) -> dict:
    return {"m": wt.m, "n": wt.n, "mu_t": str(wt.mu_t), "mu_C": str(wt.mu_C)}


def _vvec_payload(v) -> list:
    return [{"theta": k, "eta": list(indices_of(l)), "monomial": list(mon),
             "coeff": c.to_json()}
            for (k, l, mon), c in sorted(v.items())]


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def _corrupted_psi(a, b):
    val = an.psi_default(a, b)
    if a == (0, 0) and b == (0, 15):
        return scal(-3)
    return val


def cmd_axioms(args) -> int:
    t0 = time.time()
    psi = _corrupted_psi if args.corrupt_cocycle else an.psi_default
    checks = []

    rep = cf.check_conformal_axioms(args.max_dpow)
    checks.append(_check("conformal-axioms", rep.ok,
                         pairs=rep.pairs_checked, triples=rep.triples_checked,
                         counterexamples=[repr(f) for f in rep.failures[:3]]))
    bad = cf.check_derived_closure(args.max_dpow)
    checks.append(_check("derived-subalgebra-closure", not bad,
                         max_dpow=args.max_dpow, **_named(bad)))

    jac = an.check_jacobi(args.max_tpow)
    coc = an.check_cocycle(args.max_tpow, psi=psi)
    ext = an.extension_failures(jac, coc)
    checks.append(_check("annihilation-jacobi", not ext,
                         triples=jac.triples_checked,
                         counterexamples=[repr(f) for f in ext[:3]]))
    checks.append(_check("cocycle-conditions", coc.ok,
                         pairs_and_triples=coc.pairs_checked
                         + coc.triples_checked,
                         counterexamples=[repr(f) for f in coc.failures[:3]]))

    ymax = args.max_tpow + 1
    quo = an.check_quotient_morphism(ymax)
    checks.append(_check("quotient-morphism", quo.ok,
                         pairs=quo.pairs_checked, max_ypow=ymax,
                         **_named(quo.failures)))

    # K is central and phi kills it; every other key goes to one term of
    # its own, so the kernel of phi is exactly the line of K
    kernel = {an.KERNEL_KEY: ONE}
    images = {b: an.phi({b: ONE}) for b in an.lie_basis(ymax)}
    hits = Counter(k for img in images.values() for k in img)
    bad = [b for b, img in images.items()
           if an.lie_bracket_K4(kernel, {b: ONE}) != {}
           or len(img) != (0 if b == an.KERNEL_KEY else 1)
           or any(hits[k] > 1 for k in img)]
    checks.append(_check("kernel-is-central", not bad, **_named(bad)))

    keys0 = an.basis(0, with_central=False)
    pairs = [(a, b) for a in keys0 for b in keys0]
    bad = [p for p in pairs if an.psi_from_splitting(*p) != psi(*p)]
    checks.append(_check("cocycle-from-splitting", not bad, pairs=len(pairs),
                         **_named(bad)))

    return _finish(args, checks, t0)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _parse_weight(text: str) -> Weight:
    try:
        m, n, mu_t, mu_C = (p.strip() for p in text.split(","))
        return weight(int(m), int(n), Fraction(mu_t), Fraction(mu_C))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected M,N,MT,MC with M, N >= 0 and rationals p/q, q != 0; "
            f"got {text!r}") from None


def _int_at_least(text: str, low: int, what: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonneg_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {text!r} "
                                         "does not exist")
    return text


def cmd_search(args) -> int:
    t0 = time.time()
    wt = args.weight
    rep = sv.solve(wt, args.degree)
    checks = [_check("solver", True, kernel_dim=rep.kernel_dim,
                     labels=list(rep.labels))]
    if args.dual_path:
        rep2 = sv.solve(wt, args.degree, dual=True)
        checks.append(_check("dual-path-agrees", rep.kernel == rep2.kernel))
    extra = {
        "weight": _wt_payload(wt),
        "degree": args.degree,
        "kernel": [_vvec_payload(v) for v in rep.kernel],
    }
    return _finish(args, checks, t0, extra)


# ---------------------------------------------------------------------------
# verify-theorems
# ---------------------------------------------------------------------------


def _wrong_degree(rep: sv.SingularReport) -> dict | None:
    """The witness of a solve whose kernel is not the classified one."""
    expect = sorted(sv.expected_labels(rep.weight, rep.deg))
    got = sorted(l for l in rep.labels if l)
    if rep.kernel_dim == len(expect) and got == expect:
        return None
    return {"degree": rep.deg, "kernel_dim": rep.kernel_dim,
            "expected": expect, "labels": list(rep.labels)}


def _entry(name: str, reps, vectors: dict, **payload) -> dict:
    """An entry over the solves at one weight and the verify_vector reports
    of the table vectors there, by instance: ok when each kernel is the
    classified one and each vector is singular, else naming each witness."""
    witness = {"wrong_degrees": [w for w in map(_wrong_degree, reps) if w],
               "failing_vectors": [
                   {"instance": s, "generators": list(ver.failures)}
                   for s, ver in vectors.items() if not ver.ok]}
    return _check(name, not any(witness.values()), **payload,
                  **{k: v for k, v in witness.items() if v})


def cmd_verify_theorems(args) -> int:
    t0 = time.time()
    try:
        negatives = sv.off_list_weights(args.max_mn, args.negatives, args.seed)
    except ValueError as exc:
        build_parser().error(f"--negatives: {exc}")
    table = sv.table_weights(args.max_mn)
    checks = []
    for wt in sorted(table, key=mo._node_sort_key):
        vectors = {f"{lab}({m},{n})": sv.verify_vector(
            sv.build_theorem_vector(lab, m, n)[1], wt)
            for lab, m, n in table[wt]}
        checks.append(_entry(f"weight {wt}", sv.classify(wt).values(),
                             vectors, instances=list(vectors)))
    for label, wt in sv.box_edge_weights(args.max_mn):
        rep = sv.solve(wt, sv.FAMILIES[label].deg)
        checks.append(_entry(f"box-edge {label} {wt}", [rep], {},
                             degree=rep.deg, kernel_dim=rep.kernel_dim))
    checks += [_entry(f"off-list {wt}", sv.classify(wt).values(), {})
               for wt in negatives]
    return _finish(args, checks, t0, {"seed": args.seed})


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def cmd_complexes(args) -> int:
    t0 = time.time()
    json_path = args.out or "graph.json"
    dot_path = os.path.splitext(json_path)[0] + ".dot"
    if dot_path == json_path:
        build_parser().error(f"--out {json_path!r} is where the DOT file goes")
    try:
        _out_path(dot_path)
    except argparse.ArgumentTypeError as exc:
        build_parser().error(f"the DOT path: {exc}")
    graph = mo.build_complex_graph(args.max_mn)
    checks = [
        _check("duality-involution", mo.duality_is_involution(graph),
               nodes=len(graph.nodes), edges=len(graph.edges)),
        _check("supertrace-t", mo.supertrace_ad({(1, 0): ONE}) == scal(2)),
        _check("supertrace-C", mo.supertrace_ad({an.CKEY: ONE}).is_zero()),
    ]
    rep = mo.check_two_paths(graph)
    checks.append(_check("two-path-compositions-vanish", rep.ok,
                         paths=rep.pairs_checked,
                         counterexamples=rep.failures[:5]))

    for path, text in ((json_path, mo.graph_to_json(graph)),
                       (dot_path, mo.graph_to_dot(graph))):
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return _finish(args, checks, t0,
                   {"files": {"json": json_path, "dot": dot_path}},
                   stdout=True)


# ---------------------------------------------------------------------------
# coadjoint
# ---------------------------------------------------------------------------


def cmd_coadjoint(args) -> int:
    t0 = time.time()
    iso = co.check_phi_iso(args.max_degree)
    half = args.max_degree // 2
    missed = co.iterated_action_failures(half)
    unraised = co.raising_failures(half)
    checks = [
        _check("degreewise-bijective", all(iso.bijective),
               dims=list(iso.dims), max_degree=iso.max_degree),
        _check("equivariance-sampled", iso.equivariant,
               max_degree=iso.sample_degree),
        _check("linearity", iso.linear, max_degree=iso.sample_degree),
        _check("iterated-action-nonzero", not missed, max_theta_pow=half,
               **_named(missed)),
        _check("raising-returns-to-theta-star", not unraised, max_tpow=half,
               **_named(unraised)),
        _check("t-scales-theta-star",
               co.coadjoint_act({(1, 0): ONE}, dict(co.THETA_STAR))
               == {(0, 0): scal(-4)}),
    ]
    rep = co.check_representation(args.max_degree)
    checks.append(_check("action-is-a-representation", rep.ok,
                         triples=rep.triples_checked, **_named(rep.failures)))
    degrees = [1, 2, 3]
    no_sing = all(sv.solve(co.WT_COADJOINT, d).kernel_dim == 0
                  for d in degrees)
    checks.append(_check("module-has-no-singular-vectors", no_sing,
                         degrees=degrees))
    return _finish(args, checks, t0)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="k4verma",
        description="exact checks for the rank-four conformal superalgebra, "
                    "its induced modules and their singular vectors")
    sub = p.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="algebra-level identities")
    ax.add_argument("--max-tpow", type=_nonneg_int, default=3)
    ax.add_argument("--max-dpow", type=_nonneg_int, default=2)
    ax.add_argument("--corrupt-cocycle", action="store_true",
                    help="negative control: perturb the 2-cocycle")
    ax.add_argument("--out", type=_out_path)
    ax.set_defaults(func=cmd_axioms)

    se = sub.add_parser("search", help="singular vectors at one weight")
    se.add_argument("--weight", type=_parse_weight, required=True,
                    metavar="M,N,MT,MC",
                    help="labels m n and rationals mu_t mu_C (as p/q)")
    se.add_argument("--degree", type=_positive_int, required=True)
    se.add_argument("--dual-path", action="store_true")
    se.add_argument("--out", type=_out_path)
    se.set_defaults(func=cmd_search)

    vt = sub.add_parser("verify-theorems", help="sweep the classification")
    vt.add_argument("--max-mn", type=_nonneg_int, default=3)
    vt.add_argument("--negatives", type=_nonneg_int, default=10)
    vt.add_argument("--seed", type=int, default=20260826)
    vt.add_argument("--out", type=_out_path)
    vt.set_defaults(func=cmd_verify_theorems)

    cx = sub.add_parser("complexes", help="morphism graph and compositions")
    cx.add_argument("--max-mn", type=_nonneg_int, default=2)
    cx.add_argument("--out", type=_out_path,
                    help="JSON path (DOT lands next to it)")
    cx.set_defaults(func=cmd_complexes)

    ca = sub.add_parser("coadjoint", help="restricted-dual identification")
    ca.add_argument("--max-degree", type=_nonneg_int, default=6)
    ca.add_argument("--out", type=_out_path)
    ca.set_defaults(func=cmd_coadjoint)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
