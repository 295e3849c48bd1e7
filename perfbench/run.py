"""Exact-sweep benchmark of k4verma: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  All work happens in fresh
child interpreters (perfbench/worker.py) with PYTHONPATH=src, one thread
each, one at a time, and K4V_THREADS removed from the environment; each
keeps itself on whichever CPU is currently fastest.  A worker repeats
the workload's round of ops; its first round starts with every cache
empty.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  * ops_per_s: ops completed per second of the worker's warm rounds,
    every round after the first;
  * op_p50_ms, op_p90_ms: percentiles over every latency sample of those
    warm rounds (every op in every warm round); the report gives the
    sample count and how many samples lie beyond p90;
  * setup_s: the median, over every fresh interpreter of the run, of the
    time to import every k4verma module; those are the worker and the
    PROBES probe interpreters it starts, one at a time and spread evenly
    over its timed phase, so they sample the host's speed across the run;
  * first_op_s: the mean, over the same interpreters, of the time of the
    first op of the round with every cache empty (one sample each, so
    the mean uses all of them; it moved less from run to run than the
    median did);
  * peak_rss_mb: the ru_maxrss of the worker that ran the rounds.
--trace 1 reports the per-layer metrics: a plain worker and a traced
worker run S/2 seconds each (the ratio of their ops_per_s is the tracing
overhead), then a second traced interpreter repeats the first round,
whose counts must match the traced worker's exactly.  Times are per warm
round; counts are those of the first round.

Every op is checked against a known answer, and every worker also runs
its workload's negative control, which must fail and name a witness.
The full report, stamped with the Python version, nproc and the git sha,
goes to .perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("algebra", "classify", "action")
PROBES = 12               # fresh interpreters spread over a timed run
DEADLINE_S = 170
MODULES = ("bench", "exact", "conformal", "annihilation", "weights",
           "verma", "solver", "morphisms", "coadjoint")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "K4V_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(deadline: float, *args) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    # the worker starts probe interpreters of its own; its session holds
    # them all, so a worker that runs out of time is stopped with them
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *map(str, args)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise BenchError(f"worker {args} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         + stderr[-3000:])
    return json.loads(stdout.strip().splitlines()[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _warm_ms(part: dict) -> list[float]:
    """Every latency of every op in the warm rounds, after the first, in
    ms.  The host's CPUs speed up and slow down in spells of seconds;
    pooling every warm sample of the run averages over those spells."""
    return [x / 1e6 for lats in part["latencies_ns"] for x in lats[1:]]


def _ops_per_s(part: dict) -> float:
    """Ops completed per second of the warm rounds, after the first."""
    return len(part["latencies_ns"]) * part["rounds"] / part["warm_s"]


def _controls_ok(controls: list[dict]) -> bool:
    return all(c["n_failed"] and c["witness"] for c in controls)


# ---------------------------------------------------------------------------


def end_to_end(wl: str, seed: int, seconds: float, deadline: float):
    part = _worker(deadline, "run", "--workload", wl, "--seed", seed,
                   "--trace", 0, "--seconds", seconds, "--probes", PROBES)
    probes = part["probes"]
    fresh = [part] + probes
    warm_ms = _warm_ms(part)
    if not warm_ms:
        raise BenchError("no warm round: run for longer")
    p90 = statistics.quantiles(warm_ms, n=10)[8]
    metrics = {
        "ops_per_s": _ops_per_s(part),
        "op_p50_ms": statistics.median(warm_ms),
        "op_p90_ms": p90,
        "setup_s": statistics.median(p["setup_s"] for p in fresh),
        "first_op_s": statistics.fmean(p["first_op_s"] for p in fresh),
        "peak_rss_mb": part["rss_mb"],
    }
    detail = {
        "ops_per_round": len(part["latencies_ns"]),
        "warm_rounds": part["rounds"],
        "samples": len(warm_ms),
        "samples_beyond_p90": sum(x > p90 for x in warm_ms),
        "fresh_interpreters": len(fresh),
        "first_op": part["first_op"],
        "setup_s_all": [p["setup_s"] for p in fresh],
        "first_op_s_all": [p["first_op_s"] for p in fresh],
        "op_latencies_ms": [
            (w, [x / 1e6 for x in lats])
            for w, lats in zip(part["witnesses"], part["latencies_ns"])],
        "cache_info": part["cache"],
        "controls": [part["control"]],
        "failures": [f for p in fresh for f in p["failures"]][:10],
    }
    if detail["samples_beyond_p90"] < 10:
        print(f"warning: only {detail['samples_beyond_p90']} samples lie "
              "beyond op_p90_ms", file=sys.stderr)
    attempted = part["ops"] + len(probes)
    failed = sum(p["n_failed"] for p in fresh)
    return (metrics, attempted, failed, _controls_ok(detail["controls"]),
            detail)


def per_layer(wl: str, seed: int, seconds: float, deadline: float):
    run = ("run", "--workload", wl, "--seed", seed)
    plain = _worker(deadline, *run, "--trace", 0, "--seconds", seconds / 2)
    traced = _worker(deadline, *run, "--trace", 1, "--micro", 1,
                     "--seconds", seconds / 2)
    again = _worker(deadline, *run, "--trace", 1, "--seconds", 0)
    counted = traced["counted"]
    repeat_ok = counted == again["counted"]
    rounds = traced["rounds"]
    if not (rounds and plain["rounds"]):
        raise BenchError("no warm round: run for longer")
    spans = traced["trace"]["spans"]

    def per_round(name: str) -> float:
        return sum(s["total_ns"] for s in spans if s["name"] == name) \
            / 1e9 / rounds

    def ratio(names) -> float:
        hits = sum(traced["cache"][n]["hits"] for n in names)
        total = hits + sum(traced["cache"][n]["misses"] for n in names)
        return hits / total if total else 0.0

    def c(name: str) -> int:
        return counted.get(name, 0)

    templates = [n for n in traced["cache"] if n.endswith("_template")]
    m = dict(traced["micro"])
    m.update({
        "exact.reduce_s": per_round("exact.reduce"),
        "exact.rows_in": c("exact.rows_in"),
        "exact.nnz_in": c("exact.nnz_in"),
        "exact.rank": c("exact.rank"),
        "exact.pivot_yield": (c("exact.rank") / c("exact.rows_in")
                              if c("exact.rows_in") else 0.0),
        "conformal.jacobi_s": per_round("conformal.jacobi"),
        "conformal.triples": c("conformal.triples"),
        "conformal.gen_bracket.hit_ratio": ratio(["gen_bracket"]),
        "conformal.gen_bracket.entries":
            traced["cache"]["gen_bracket"]["currsize"],
        "annihilation.jacobi_s": per_round("annihilation.jacobi"),
        "annihilation.cocycle_s": per_round("annihilation.cocycle"),
        "annihilation.quotient_s": per_round("annihilation.quotient"),
        "annihilation.triples": c("annihilation.triples"),
        "annihilation.key_bracket.hit_ratio": ratio(["key_bracket_plain"]),
        "weights.act_g0_calls": c("calls.weights.act_g0"),
        "weights.act_g0_s": per_round("weights.act_g0"),
        "verma.action_s": per_round("verma.action"),
        "verma.act_s": per_round("verma.act"),
        "verma.oracle_s": per_round("verma.oracle"),
        "verma.template.hit_ratio": ratio(templates),
        "verma.template.entries":
            sum(traced["cache"][n]["currsize"] for n in templates),
        "verma.template.misses": counted["template_misses"],
        "solver.assemble_s": per_round("solver.assemble"),
        "solver.canonical_s": per_round("solver.canonical"),
        "solver.label_s": per_round("solver.label"),
        "solver.solves": c("solver.solves"),
        "solver.unknowns": c("solver.unknowns"),
        "solver.rows": c("solver.rows"),
        "solver.kernel_dim": c("solver.kernel_dim"),
        "morphisms.verify_s": per_round("morphisms.verify"),
        "morphisms.compose_s": per_round("morphisms.compose"),
        "morphisms.paths": c("calls.morphisms.compose"),
        "coadjoint.phi_iso_s": per_round("coadjoint.phi_iso"),
        "coadjoint.act_s": per_round("coadjoint.act"),
        "trace.overhead": _ops_per_s(plain) / _ops_per_s(traced) - 1,
    })
    self_s = {}
    for s in spans:
        mod = s["name"].split(".", 1)[0]
        self_s[mod] = self_s.get(mod, 0) + s["self_ns"] / 1e9 / rounds
    for mod in MODULES:
        m[f"self_s.{mod}"] = self_s.get(mod, 0.0)

    attempted = plain["ops"] + traced["ops"] + again["ops"]
    failed = plain["n_failed"] + traced["n_failed"] + again["n_failed"]
    controls = [plain["control"], traced["control"], again["control"]]
    ok = _controls_ok(controls) and repeat_ok
    detail = {
        "rounds": rounds,
        "plain_ops_per_s": _ops_per_s(plain),
        "traced_ops_per_s": _ops_per_s(traced),
        "counted_round": counted,
        "counted_round_repeat": again["counted"],
        "counts_repeat_exactly": repeat_ok,
        "cache_info": traced["cache"],
        "trace": traced["trace"],
        "controls": controls,
        "failures": plain["failures"] + traced["failures"]
        + again["failures"],
    }
    return m, attempted, failed, ok, detail


# ---------------------------------------------------------------------------


def _stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "k4verma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "k4verma" / "__init__.py").is_file():
        print(f"error: no k4verma sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        values, attempted, failed, checks_ok, detail = measure(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for spec in _declared(args.trace):
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    result = {"correct": failed == 0 and checks_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": _stamp(), "result": result,
              "fail_ratio": failed / attempted, "all_metrics": values,
              **detail}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:38s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    for c in report["controls"][:1]:
        print(f"{args.workload:9s} negative control: {c['case']} -> "
              f"{c['witness']}", file=sys.stderr)
    print(f"report: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
