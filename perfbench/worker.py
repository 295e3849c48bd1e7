"""One fresh interpreter's share of a benchmark run; prints one JSON line.

    worker.py probe --workload W --seed S
        time the import of every k4verma module, then the first op of
        the round with every cache empty
    worker.py run --workload W --seed S --trace 0|1 --seconds X --probes N
        the first round, which starts with every cache empty, then more
        rounds until X seconds have gone by (none for X = 0), then the
        negative control; N probes run in between, one every X/N seconds
        of measured time, each in a fresh interpreter while this one
        waits, so that their samples spread over the whole run

Every round runs the same ops; op i's latencies, first round included,
are reported as list i.  The first op of the first round gives
first_op_s.  With --trace 1 the counts of the first round (rows,
unknowns, triples, template misses, ...) are reported apart, because they
repeat exactly for a given seed, and spans cover the later, warm rounds.
Run by run.py, which sets PYTHONPATH to the checkout's src/.  Only the
modules Python's own start-up needs are imported before the k4verma
import is timed; everything else comes after it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
CPUS = sorted(os.sched_getaffinity(0))
REPIN_NS = 500_000_000      # between ops, look for a faster CPU this often


def _pin_fastest() -> None:
    """Move this process to the CPU that runs a short fixed loop fastest
    right now.  The host slows each virtual CPU down in spells of a few
    seconds, largely independently of the other; which spell an op lands
    in is noise, not a property of the engine.  Costs about 5 ms."""
    if len(CPUS) < 2:
        return
    took = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        x = 0
        for i in range(40000):
            x += i * i
        took[cpu] = time.perf_counter() - t0
    os.sched_setaffinity(0, {min(took, key=took.get)})


def _import_all() -> float:
    """Seconds to import every k4verma module in this fresh process."""
    pkg_dir = os.path.join(SRC, "k4verma")
    names = sorted(f[:-3] for f in os.listdir(pkg_dir)
                   if f.endswith(".py") and not f.startswith("__"))
    t0 = time.perf_counter()
    pkg = importlib.import_module("k4verma")
    for name in names:
        importlib.import_module(f"k4verma.{name}")
    dt = time.perf_counter() - t0
    if os.path.dirname(os.path.realpath(pkg.__file__)) \
            != os.path.realpath(pkg_dir):
        raise SystemExit(f"imported k4verma from {pkg.__file__}, "
                         f"not from {pkg_dir}")
    return dt


def _probe(args) -> dict:
    _pin_fastest()
    setup_s = _import_all()
    # the benchmark's own modules import k4verma, so they come after it
    from workloads import WORKLOADS, Inputs, NullTracer
    wl = WORKLOADS[args.workload]
    op = wl.round_ops(Inputs(args.seed, "round"), NullTracer())[0]
    t0 = time.perf_counter()
    bad = op.run()
    return {"setup_s": setup_s, "first_op_s": time.perf_counter() - t0,
            "first_op": op.witness, "failures": [repr(b) for b in bad[:3]],
            "n_failed": int(bool(bad))}


def _spawn_probe(args) -> dict:
    """Run `probe` in a fresh interpreter and wait for it."""
    import json
    import subprocess
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"probe exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _micro() -> dict:
    """ns per ExactScalar operation on fixed operand classes."""
    import statistics
    import timeit
    from fractions import Fraction as F
    from k4verma.exact import scal
    classes = {
        "int": (scal(3), scal(-7)),
        "rat": (scal(F(3, 2)), scal(F(-5, 2))),
        "gauss": (scal(F(2, 3), F(-5, 7)), scal(F(-1, 4), F(3, 5))),
    }
    number = 5000

    def ns(stmt, a, b):
        runs = timeit.repeat(stmt, globals={"a": a, "b": b},
                             number=number, repeat=5)
        return statistics.median(runs) / number * 1e9

    out = {f"exact.mul_ns.{k}": ns("a * b", *ab) for k, ab in classes.items()}
    out["exact.add_ns.gauss"] = ns("a + b", *classes["gauss"])
    return out


def _snapshot(tr) -> dict:
    """The deterministic counts of the rounds run so far."""
    import tracing
    snap = dict(tr.counts)
    for (_, name), a in tr.agg.items():
        snap[f"calls.{name}"] = snap.get(f"calls.{name}", 0) + a[0]
    caches = tracing.cache_stats()
    snap["template_misses"] = sum(caches[n]["misses"]
                                  for n in tracing.TEMPLATES)
    return snap


def _run(args) -> dict:
    _pin_fastest()
    setup_s = _import_all()
    from workloads import WORKLOADS, Inputs, NullTracer
    import tracing

    wl = WORKLOADS[args.workload]
    tr = tracing.Tracer() if args.trace else NullTracer()
    if args.trace:
        tracing.install(tr)
    clock = time.perf_counter_ns
    ops = wl.round_ops(Inputs(args.seed, "round"), tr)
    latencies: list[list[int]] = [[] for _ in ops]
    failures: list[str] = []
    n_failed = 0
    n_ops = 0
    first_op_s = None
    probes: list[dict] = []
    probe_every_ns = args.seconds * 1e9 / args.probes if args.probes else 0
    measured_ns = 0             # of the rounds finished so far

    def run_round(rnd: int) -> int:
        nonlocal n_failed, n_ops, first_op_s
        t_round = clock()
        pinned = t_round
        paused = 0
        for i, op in enumerate(ops):
            due = (len(probes) + 0.5) * probe_every_ns
            if len(probes) < args.probes and \
                    measured_ns + clock() - t_round - paused >= due:
                t_probe = clock()
                probes.append(_spawn_probe(args))
                paused += clock() - t_probe
                pinned = 0
            if clock() - pinned > REPIN_NS:
                _pin_fastest()
                pinned = clock()
            t0 = clock()
            with tr.span("bench." + op.kind):
                bad = op.run()
            t1 = clock()
            if first_op_s is None:
                first_op_s = (t1 - t0) / 1e9
            latencies[i].append(t1 - t0)
            if args.trace and rnd:
                tr.op_spans.append((rnd, op.kind, t0, t1))
            n_ops += 1
            if bad:
                n_failed += 1
                failures.extend(repr(b) for b in bad[:2])
        return clock() - t_round - paused

    first_ns = measured_ns = run_round(0)
    counted = None
    if args.trace:
        counted = _snapshot(tr)
        tr.reset()
    rounds = 0                  # warm rounds, after the first
    while measured_ns < args.seconds * 1e9:
        rounds += 1
        measured_ns += run_round(rounds)

    out = {
        "setup_s": setup_s,
        "first_op_s": first_op_s,
        "first_op": ops[0].witness,
        "witnesses": [f"{op.kind}: {op.witness}" for op in ops],
        "latencies_ns": latencies,
        "warm_s": (measured_ns - first_ns) / 1e9,
        "rounds": rounds,
        "ops": n_ops,
        "n_failed": n_failed,
        "failures": failures[:10],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache": tracing.cache_stats(),
        "probes": probes,
    }
    if args.trace:
        out["counted"] = counted
        out["trace"] = tr.dump()
        if args.micro:
            out["micro"] = _micro()
    # the negative control runs last, outside every measurement
    control = wl.control(Inputs(args.seed, "control"), NullTracer())
    bad = control.run()
    out["control"] = {"case": control.witness, "n_failed": int(bool(bad)),
                      "witness": repr(bad[0]) if bad else None}
    return out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("probe", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--micro", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--probes", type=int, default=0)
    args = p.parse_args()
    out = _probe(args) if args.mode == "probe" else _run(args)
    import json
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
