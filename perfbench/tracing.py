"""Span tracing from outside the program, for the per-layer metrics.

:class:`Recorder` keeps spans in memory as parallel arrays (name,
start, end, parent span, cell id).  :meth:`Recorder.installed` wraps
the public entry point of each layer — class attributes, module
globals the callers look up at call time, and the per-simulation
policy/controller methods bound on the instance — and restores every
original on exit.  Wrappers only time and count: they call the
original with the same arguments and return its result, so a traced
run takes the same code path as an untraced one (the harness checks
that the simulated outputs agree).

A span's *self time* is its duration minus the part of it that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

POLICIES = ("moca", "prema", "planaria", "static")

#: Every per-layer metric the traced run reports, with its unit, in
#: layer order.  ``*_ms`` values are milliseconds per cell of the
#: traced pass, except the one-off set-up costs ``latency.
#: cost_build_ms`` and ``executor.warmup_ms``.
PER_LAYER_METRICS: Dict[str, str] = {
    # sim.workload + sim.qos
    "workload.generate_ms": "ms",
    "workload.generate_calls": "count",
    "workload.share_of_cell": "ratio",
    "qos.target_calls": "count",
    "qos.target_ms": "ms",
    # core.latency
    "latency.cost_build_ms": "ms",
    "latency.cost_cache_misses": "count",
    "latency.predict_memo_hits": "count",
    "latency.predict_memo_misses": "count",
    # sim.engine
    "engine.construct_ms": "ms",
    "engine.run_ms": "ms",
    "engine.self_ms": "ms",
    "engine.events": "count",
    "engine.block_time_recomputes": "count",
    "engine.epoch_reuse_ratio": "ratio",
    # core.policy, baselines.*
    **{
        f"policy.{p}.{m}": unit
        for p in POLICIES
        for m, unit in (
            ("decide_calls", "count"),
            ("decide_ms", "ms"),
            ("decide_us_per_call", "us"),
            ("ready_depth_mean", "jobs"),
        )
    },
    "policy.moca.fused_calls": "count",
    "policy.moca.fused_ms": "ms",
    "policy.moca.guard_skips": "count",
    "plan.applied_ratio": "ratio",
    # sim.plan
    "controller.apply_calls": "count",
    "controller.apply_ms": "ms",
    "controller.plan_actions": "count",
    # memory.arbiter
    "arbiter.waterfill_calls": "count",
    "arbiter.waterfill_ms": "ms",
    # metrics.summary
    "metrics.summarize_ms": "ms",
    # experiments.parallel
    "executor.warmup_ms": "ms",
    "executor.cell_worker_ms": "ms",
    "executor.parent_wait_ms": "ms",
    "executor.pool_efficiency": "ratio",
    "executor.retries": "count",
    "executor.warmup_timeouts": "count",
    # experiments.sharding journal, experiments.results, reporting
    "journal.append_ms": "ms",
    "results.add_ms": "ms",
    "export.json_ms": "ms",
    "export.csv_ms": "ms",
    "export.bytes": "B",
    # the tracer itself
    "trace.overhead_ratio": "ratio",
}


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span)."""
    out = [e - s for s, e in zip(starts, ends)]
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        intervals = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
        cover = 0.0
        cur_s, cur_e = intervals[0]
        for s, e in intervals[1:]:
            if s > cur_e:
                cover += max(0.0, cur_e - cur_s)
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        cover += max(0.0, cur_e - cur_s)
        out[p] -= cover
    return out


class Recorder:
    """In-memory span store plus call counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self._stack: List[int] = []
        self._cell = -1
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self._cell)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name``."""
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    # -- aggregation ---------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}``."""
        selfs = self_times(self.start, self.end, self.parent)
        out: Dict[str, List[float]] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += selfs[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path) -> None:
        """Write every span (columnar, gzip-compressed JSON)."""
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "cell": list(self.cell),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap each layer's public entry points for the duration."""
        import repro.experiments.parallel as parallel
        import repro.experiments.runner as runner
        import repro.reporting as reporting
        import repro.sim.engine as engine
        from repro.experiments.results import SweepResults
        from repro.experiments.sharding import CellJournal
        from repro.sim.qos import QosModel
        from repro.sim.workload import WorkloadGenerator

        rec = self
        orig_init = engine.Simulator.__init__
        orig_cell = parallel.run_cell_detail

        def cell(*args, **kwargs):
            rec._cell += 1
            idx = rec.begin("cell")
            try:
                return orig_cell(*args, **kwargs)
            finally:
                rec.finish(idx)

        def construct(sim, *args, **kwargs):
            idx = rec.begin("engine.construct")
            try:
                orig_init(sim, *args, **kwargs)
            finally:
                rec.finish(idx)
            rec._instrument(sim)

        spans = [
            (engine.Simulator, "run", "engine.run"),
            (engine, "waterfill_grants", "arbiter.waterfill"),
            (runner, "summarize", "metrics.summarize"),
            (WorkloadGenerator, "generate", "workload.generate"),
            (QosModel, "target", "qos.target"),
            (parallel.ParallelRunner, "run_supervised",
             "executor.run_supervised"),
            (SweepResults, "add", "results.add"),
            (CellJournal, "append_cell", "journal.append"),
            (reporting, "sweep_to_json", "export.json"),
            (reporting, "sweep_to_csv", "export.csv"),
        ]
        patches = [
            (parallel, "run_cell_detail", cell),
            (engine.Simulator, "__init__", construct),
        ] + [
            (owner, attr, self.wrap(span, getattr(owner, attr)))
            for owner, attr, span in spans
        ]
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def _instrument(self, sim) -> None:
        """Wrap the hooks the engine calls on this simulation's
        policy and controller (bound on the instances, so only this
        simulation sees them)."""
        policy = sim.policy
        name = policy.name
        counts = self.counts
        begin, finish = self.begin, self.finish
        decide = policy.decide
        span = f"policy.{name}.decide"
        depth = f"{span}.depth"

        def traced_decide(s):
            counts[depth] += len(s.ready)
            idx = begin(span)
            try:
                return decide(s)
            finally:
                finish(idx)

        policy.decide = traced_decide
        guard = policy.kernel_noop_guard
        if guard is not None:
            guard_span = f"policy.{name}.guard"
            skips = f"policy.{name}.guard_skips"

            def traced_guard(s):
                idx = begin(guard_span)
                try:
                    skip = guard(s)
                finally:
                    finish(idx)
                if skip:
                    counts[skips] += 1
                return skip

            policy.kernel_noop_guard = traced_guard
        fused = policy.kernel_decide_apply
        if fused is not None:
            policy.kernel_decide_apply = self.wrap(
                f"policy.{name}.fused", fused
            )
        sim.controller.apply = self.wrap(
            "controller.apply", sim.controller.apply
        )


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def cell_layer_metrics(rec: Recorder, cells) -> Dict[str, float]:
    """Metrics of the layers inside a cell, from a traced pass that
    ran the cells in this process."""
    tot = rec.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return tot.get(name, (0, 0.0, 0.0))[1] * 1e3

    n = len(cells)
    by_policy = Counter(c.policy for c in cells)
    recomputes = sum(c.block_time_recomputes for c in cells)
    reuses = sum(c.block_time_reuses for c in cells)
    out = {
        "workload.generate_ms": _per(ms("workload.generate"), n),
        "workload.generate_calls": calls("workload.generate"),
        "workload.share_of_cell": _per(
            ms("workload.generate"), ms("cell")
        ),
        "qos.target_calls": calls("qos.target"),
        "qos.target_ms": _per(ms("qos.target"), n),
        "latency.predict_memo_hits": sum(
            c.predict_memo_hits for c in cells
        ),
        "latency.predict_memo_misses": sum(
            c.predict_memo_misses for c in cells
        ),
        "engine.construct_ms": _per(ms("engine.construct"), n),
        "engine.run_ms": _per(ms("engine.run"), n),
        "engine.self_ms": _per(
            tot.get("engine.run", (0, 0.0, 0.0))[2] * 1e3, n
        ),
        "engine.events": sum(c.events for c in cells),
        "engine.block_time_recomputes": recomputes,
        "engine.epoch_reuse_ratio": _per(reuses, reuses + recomputes),
        "plan.applied_ratio": _per(
            sum(c.plans_applied for c in cells),
            sum(c.decisions for c in cells),
        ),
        "controller.apply_calls": calls("controller.apply"),
        "controller.apply_ms": _per(ms("controller.apply"), n),
        "controller.plan_actions": sum(c.plan_actions for c in cells),
        "arbiter.waterfill_calls": calls("arbiter.waterfill"),
        "arbiter.waterfill_ms": _per(ms("arbiter.waterfill"), n),
        "metrics.summarize_ms": _per(ms("metrics.summarize"), n),
        "policy.moca.fused_calls": calls("policy.moca.fused"),
        "policy.moca.fused_ms": _per(
            ms("policy.moca.fused"), by_policy["moca"]
        ),
        "policy.moca.guard_skips": rec.counts["policy.moca.guard_skips"],
    }
    for p in POLICIES:
        span = f"policy.{p}.decide"
        k = calls(span)
        out[f"policy.{p}.decide_calls"] = k
        out[f"policy.{p}.decide_ms"] = _per(ms(span), by_policy[p])
        out[f"policy.{p}.decide_us_per_call"] = _per(ms(span) * 1e3, k)
        out[f"policy.{p}.ready_depth_mean"] = _per(
            rec.counts[f"{span}.depth"], k
        )
    return out


def executor_layer_metrics(
    rec: Recorder, acc, workers: int, export_bytes: int
) -> Dict[str, float]:
    """Metrics of the sweep layers (executor, journal, results,
    export), from a traced pass as seen by the parent process."""
    tot = rec.totals()
    cells = acc.cells()
    n = len(cells)
    sup_calls, sup_total, sup_self = tot.get(
        "executor.run_supervised", (0, 0.0, 0.0)
    )

    def ms(name):
        return tot.get(name, (0, 0.0, 0.0))[1] * 1e3

    worker_s = sum(c.seconds for c in cells)
    return {
        "executor.cell_worker_ms": _per(worker_s * 1e3, n),
        "executor.parent_wait_ms": _per(sup_self * 1e3, n),
        "executor.pool_efficiency": _per(worker_s, workers * sup_total),
        "executor.retries": sum(f.attempts - 1 for f in acc.failures()),
        "journal.append_ms": _per(ms("journal.append"), n),
        "results.add_ms": _per(ms("results.add"), n),
        "export.json_ms": _per(ms("export.json"), n),
        "export.csv_ms": _per(ms("export.csv"), n),
        "export.bytes": export_bytes,
    }
