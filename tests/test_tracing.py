"""The benchmark tracer (perfbench/tracing.py) wraps engine names by
module attribute; this checks that every name it wraps still resolves
and that a traced solve runs through the wrapped layers."""

import importlib.util
from pathlib import Path

from k4verma import annihilation, coadjoint, conformal, morphisms, solver, \
    verma, weights

MODULES = (solver, verma, weights, morphisms, coadjoint, annihilation,
           conformal)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_bench_tracer_installs(monkeypatch):
    before = {m: set(vars(m)) for m in MODULES}
    for m in MODULES:
        for name, value in list(vars(m).items()):
            monkeypatch.setattr(m, name, value)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        stats = tracing.cache_stats()
        rep = solver.solve(weights.weight(0, 0, 0, 0), 1)
    finally:
        # names the tracer added (wraps of names a module does not use)
        for m in MODULES:
            for name in set(vars(m)) - before[m]:
                delattr(m, name)
    assert set(tracing.TEMPLATES) <= set(stats)
    assert rep.labels == ("1a",)
    spans = {name for _, name in tr.agg}
    assert {"solver.solve", "solver.assemble", "exact.reduce",
            "solver.canonical", "solver.label", "verma.action",
            "weights.act_g0"} <= spans
    assert tr.counts["solver.solves"] == 1
