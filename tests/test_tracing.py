"""The benchmark (perfbench/) reaches into the engine by name: the tracer
wraps engine names by module attribute, and the workloads call engine
functions and read the family records.  These tests check that every
name the tracer wraps still resolves, that a traced solve runs through
the wrapped layers, and that each workload still builds its round and
its negative control."""

import importlib.util
from pathlib import Path

from k4verma import annihilation, coadjoint, conformal, morphisms, solver, \
    verma, weights

MODULES = (solver, verma, weights, morphisms, coadjoint, annihilation,
           conformal)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs(monkeypatch):
    before = {m: set(vars(m)) for m in MODULES}
    for m in MODULES:
        for name, value in list(vars(m).items()):
            monkeypatch.setattr(m, name, value)
    tracing = _load("tracing")
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        stats = tracing.cache_stats()
        rep = solver.solve(weights.weight(0, 0, 0, 0), 1)
        # the dual route too: the tracer takes len() of its assembled rows,
        # the shape record's rows on K0, also where a second weight of the
        # shape reuses that record; the record's own reduction calls the
        # reducer directly, so it adds to neither count
        dual = solver.solve(weights.weight(0, 0, 0, 0), 1, dual=True)
        warm = solver.solve(weights.weight(0, 0, 3, 7), 1, dual=True)
    finally:
        # names the tracer added (wraps of names a module does not use)
        for m in MODULES:
            for name in set(vars(m)) - before[m]:
                delattr(m, name)
    assert set(tracing.TEMPLATES) <= set(stats)
    assert rep.labels == dual.labels == ("1a",) and warm.kernel_dim == 0
    spans = {name for _, name in tr.agg}
    assert {"solver.solve", "solver.assemble", "exact.reduce",
            "solver.canonical", "solver.label", "verma.action",
            "weights.act_g0"} <= spans
    assert tr.counts["solver.solves"] == 3
    assert tr.counts["solver.rows"] == tr.counts["exact.rows_in"] > 0


def test_bench_workloads_build_and_their_controls_fail():
    wl = _load("workloads")
    for name, workload in wl.WORKLOADS.items():
        assert workload.round_ops(wl.Inputs(7, "round"), wl.NullTracer()), \
            name
        control = workload.control(wl.Inputs(7, "control"), wl.NullTracer())
        assert control.run(), name
