"""In-memory spans around calls into each k4verma module.

The traced worker replaces chosen module attributes with wrappers that
open a span, so calls made inside the engine (for example
solver.solve -> solver._assemble_rows) are caught through the module
global they go through.  Nothing in `src/` is edited.

Hot spans (act_g0 runs tens of thousands of times a round) are kept
as aggregates keyed by (parent span, span): calls, total and self time,
where self time is the duration minus the time covered by child spans.
Only the op spans, one per op, are kept as individual records.  Both are
written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from k4verma import annihilation as an
from k4verma import coadjoint as co
from k4verma import conformal as cf
from k4verma import morphisms as mo
from k4verma import solver as sv
from k4verma import verma
from k4verma import weights as wts

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self._stack: list[list] = []         # [span name, child ns]
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.counts: Counter = Counter()
        self.op_spans: list[tuple] = []      # (round, kind, start ns, end ns)

    def _close(self, frame: list, dt: int) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dt
        key = (parent[0] if parent else "", frame[0])
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0, 0]
        a[0] += 1
        a[1] += dt
        a[2] += dt - frame[1]

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn):
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kw):
            frame = [name, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kw)
            finally:
                close(frame, _clock() - t0)

        return traced

    def reset(self) -> None:
        """Forget times and counts; used between the counted first round
        and the timed rounds."""
        self.agg.clear()
        self.counts.clear()
        self.op_spans.clear()

    def dump(self) -> dict:
        return {"spans": [{"parent": p, "name": n, "calls": a[0],
                           "total_ns": a[1], "self_ns": a[2]}
                          for (p, n), a in sorted(self.agg.items())],
                "ops": [list(r) for r in self.op_spans],
                "counts": dict(self.counts)}


class _Span:
    __slots__ = ("tr", "frame", "t0")

    def __init__(self, tr: Tracer, name: str):
        self.tr = tr
        self.frame = [name, 0]

    def __enter__(self):
        self.tr._stack.append(self.frame)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc):
        self.tr._close(self.frame, _clock() - self.t0)
        return False


def install(tr: Tracer) -> None:
    """Wrap the module attributes that carry the layer boundaries."""
    orig_reduce = sv.sparse_nullspace

    def reduce_counted(rows, ncols):
        rows = list(rows)
        basis = orig_reduce(rows, ncols)
        c = tr.counts
        c["exact.rows_in"] += len(rows)
        c["exact.nnz_in"] += sum(len(r) for r in rows)
        c["exact.rank"] += ncols - len(basis)
        c["solver.kernel_dim"] += len(basis)
        return basis

    orig_assemble = sv._assemble_rows

    def assemble_counted(wt, cols, dual):
        rows = orig_assemble(wt, cols, dual)
        c = tr.counts
        c["solver.solves"] += 1
        c["solver.unknowns"] += len(cols)
        c["solver.rows"] += len(rows)
        return rows

    patches = [
        # solver entry points and the stages of one solve
        (sv, "solve", "solver.solve", sv.solve),
        (sv, "_assemble_rows", "solver.assemble", assemble_counted),
        (sv, "sparse_nullspace", "exact.reduce", reduce_counted),
        (sv, "_canonical", "solver.canonical", sv._canonical),
        (sv, "match_label", "solver.label", sv.match_label),
        # lambda actions as the solver calls them (assembly, verify_vector)
        (sv, "lambda_action", "verma.action", sv.lambda_action),
        (sv, "dual_lambda_action", "verma.action", sv.dual_lambda_action),
        # the g0 action inside template evaluation
        (verma, "act_g0", "weights.act_g0", wts.act_g0),
        # module actions, wherever they are called from
        (verma, "act", "verma.act", verma.act),
        (sv, "act", "verma.act", verma.act),
        (mo, "act", "verma.act", verma.act),
        (co, "act", "verma.act", verma.act),
        (verma, "act_oracle", "verma.oracle", verma.act_oracle),
        (mo, "morphism_from_family", "morphisms.verify",
         mo.morphism_from_family),
        (mo, "compose_is_zero", "morphisms.compose", mo.compose_is_zero),
        (co, "check_phi_iso", "coadjoint.phi_iso", co.check_phi_iso),
        (co, "coadjoint_act", "coadjoint.act", co.coadjoint_act),
        # the engine's whole annihilation sweeps
        (an, "check_jacobi", "annihilation.jacobi", an.check_jacobi),
        (an, "check_cocycle", "annihilation.cocycle", an.check_cocycle),
    ]
    for module, attr, name, fn in patches:
        setattr(module, attr, tr.wrap(name, fn))


TEMPLATES = ("primal_template", "dual_template", "oracle_template")


def cache_stats() -> dict[str, dict]:
    """cache_info() of the engine's memo tables; the three action
    templates are keyed by the names in TEMPLATES."""
    caches = {
        "primal_template": verma._primal_template,
        "dual_template": verma._dual_template,
        "oracle_template": verma._oracle_template,
        "gen_bracket": cf.gen_bracket,
        "key_bracket_plain": an._key_bracket_plain,
    }
    return {name: fn.cache_info()._asdict() for name, fn in caches.items()}
