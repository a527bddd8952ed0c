"""Benchmark harness: set-up, timed passes, metrics and output checks.

One *pass* is what ``repro sweep --workers N --max-retries 0 --out DIR
--format json,csv`` does, driven through the public APIs: a
:class:`~repro.experiments.sharding.CellJournal` checkpoint, the
supervised :class:`~repro.experiments.parallel.ParallelRunner`, and a
per-scenario ``reporting.sweep_to_json``/``sweep_to_csv`` export.
Serial workloads run it with one worker, which executes every cell in
this process.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.tracing import (
    POLICIES,
    Recorder,
    cell_layer_metrics,
    executor_layer_metrics,
)
from perfbench.workloads import Workload

#: Every end-to-end metric with its unit, in report order.
E2E_METRICS: Dict[str, str] = {
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    **{f"events_per_s.{p}": "1/s" for p in POLICIES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Deterministic simulated metrics, printed and recorded with every
#: run but not part of ``BENCHMARK.json`` (see README).
SIMULATED_METRICS: Dict[str, str] = {
    "moca_sla_rate": "ratio",
    "moca_stp": "ratio",
    "moca_fairness": "ratio",
}

GOLDEN = Path("tests") / "goldens" / "reference_matrix.json"

#: Best-of-3 time of :func:`_calibration_kernel` on a quiet host.  On
#: a shared virtual machine the host's speed swings by tens of percent
#: over minutes, which no amount of averaging inside one run removes;
#: end-to-end times are therefore scaled by :func:`host_speed`
#: measured next to them, i.e. reported in seconds of a host on which
#: the kernel takes this long.  The unscaled values are printed and
#: recorded too.
REF_KERNEL_S = 0.0115


def _calibration_kernel() -> float:
    """Seconds for a fixed pure-Python loop of dict, float and call
    work (the kind of work the simulator's host time is made of)."""
    table: Dict[int, float] = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(60000):
        table[i & 1023] = i * 0.5
        acc += table.get((i * 7) & 1023, 1.0)
    return time.perf_counter() - t0


def host_speed() -> float:
    """Reference-host seconds per host second, right now."""
    return REF_KERNEL_S / min(_calibration_kernel() for _ in range(3))


def _supervision():
    from repro.experiments.parallel import Supervision

    # Cells are deterministic: a retry repeats the failure and would
    # only add backoff sleeps to the timed region.
    return Supervision(max_retries=0)


@dataclass
class Setup:
    """What :func:`set_up` built and how long it took."""

    runner: object
    workers: int
    seconds: float
    speed: float
    cost_build_ms: float
    cold_misses: int
    warmup_ms: float


@dataclass
class PassResult:
    """One journaled, exported sweep of cells."""

    specs: list
    acc: object
    files: Dict[str, str]
    seconds: float
    #: Host speed over the pass, and per cell index where it was
    #: sampled between cells (set by :func:`timed_passes`).
    speed: float = 1.0
    cell_speeds: Dict[int, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.acc.cells()) + len(self.acc.failures())


def set_up(workload: Workload, seed: int, started: float) -> Setup:
    """Cold network-cost build, then the runner (and, for pool
    workloads, a started and warmed pool).  ``started`` is the
    ``perf_counter`` reading at process start, so ``seconds`` covers
    the imports as well."""
    from repro.config import DEFAULT_SOC
    from repro.core import latency
    from repro.experiments.parallel import ParallelRunner

    specs = workload.pass_specs(seed, 0)
    networks = {}
    for spec in specs:
        for net in spec.networks():
            networks.setdefault(net.name, net)
    latency.clear_network_cost_cache()
    misses = latency.cache_stats()["cost_cache_misses"]
    t0 = time.perf_counter()
    latency.warm_network_cost_cache(list(networks.values()), DEFAULT_SOC)
    cost_build_ms = (time.perf_counter() - t0) * 1e3
    misses = latency.cache_stats()["cost_cache_misses"] - misses
    workers = min(2, os.cpu_count() or 1) if workload.pool else 1
    runner = ParallelRunner(workers=workers)
    t0 = time.perf_counter()
    runner.start_pool(specs, DEFAULT_SOC)
    warmup_ms = (time.perf_counter() - t0) * 1e3
    seconds = time.perf_counter() - started
    return Setup(
        runner=runner,
        workers=workers,
        seconds=seconds,
        speed=host_speed(),
        cost_build_ms=cost_build_ms,
        cold_misses=misses,
        warmup_ms=warmup_ms,
    )


def export_files(specs, cells, manifest) -> Dict[str, str]:
    """Per-scenario JSON/CSV exports plus the manifest, as the sweep
    command writes them.  A scenario with a quarantined cell is not
    exported (the sweep command exports nothing then)."""
    from repro import reporting
    from repro.experiments.runner import ScenarioResult

    per_seed: Dict[Tuple[int, str], list] = {}
    for c in sorted(cells, key=lambda c: c.index):
        per_seed.setdefault((c.spec_index, c.policy), []).append(c.summary)
    files = {}
    for i, spec in enumerate(specs):
        groups = [per_seed.get((i, p), []) for p in manifest["policies"]]
        if any(len(g) != len(spec.seeds) for g in groups):
            continue
        matrix = {
            spec.label: {
                p: ScenarioResult(policy=p, spec=spec, per_seed=tuple(g))
                for p, g in zip(manifest["policies"], groups)
            }
        }
        files[f"{spec.label}.json"] = reporting.sweep_to_json(matrix)
        files[f"{spec.label}.csv"] = reporting.sweep_to_csv(matrix)
    files["manifest.json"] = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return files


def run_pass(runner, specs, out_dir: Path, after_cell=None) -> PassResult:
    """Journal, run and export one sweep of ``specs``; ``after_cell``
    is called with each completed cell once it is journaled."""
    from repro.config import DEFAULT_SOC
    from repro.experiments.results import cell_manifest
    from repro.experiments.sharding import CellJournal

    t0 = time.perf_counter()
    manifest = cell_manifest(specs)
    journal = CellJournal.open(out_dir, manifest, DEFAULT_SOC)

    def on_cell(cell):
        journal.append_cell(cell)
        if after_cell is not None:
            after_cell(cell)

    try:
        acc = runner.run_supervised(
            specs,
            supervision=_supervision(),
            on_cell=on_cell,
            on_failure=journal.append_failure,
        )
    finally:
        journal.close()
    journal.discard()
    files = export_files(specs, acc.cells(), manifest)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return PassResult(specs, acc, files, time.perf_counter() - t0)


class SpeedLog:
    """:func:`host_speed` samples taken between the cells of the timed
    region.  A cell gets the mean of the samples just before and after
    it.  In-process cells are followed by a sample once ``GAP``
    seconds have passed since the last one; pool cells run while this
    process waits, so a pool pass is only sampled before and after."""

    GAP = 0.5

    def __init__(self) -> None:
        self.last = host_speed()
        self.at = time.perf_counter()
        self.spent = 0.0  # seconds spent sampling
        self.pending: List[int] = []
        self.speeds: Dict[int, float] = {}

    def after_cell(self, cell) -> None:
        self.pending.append(cell.index)
        if time.perf_counter() - self.at >= self.GAP:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        now = host_speed()
        self.spent += time.perf_counter() - t0
        for index in self.pending:
            self.speeds[index] = (self.last + now) / 2
        self.pending = []
        self.last, self.at = now, time.perf_counter()


def timed_passes(
    workload: Workload, runner, seed: int, seconds: float, out_dir: Path
) -> List[PassResult]:
    """Closed loop: ``workload.passes(seconds)`` distinct passes back
    to back, each scaled by the host speed sampled around its cells."""
    passes: List[PassResult] = []
    log = SpeedLog()
    in_process = runner.workers == 1
    for index in range(workload.passes(seconds)):
        specs = workload.pass_specs(seed, index)
        start, spent = log.last, log.spent
        log.speeds = {}
        result = run_pass(
            runner, specs, out_dir,
            after_cell=log.after_cell if in_process else None,
        )
        result.seconds -= log.spent - spent
        log.sample()
        result.cell_speeds = log.speeds
        cells = result.acc.cells()
        busy = sum(c.seconds for c in cells)
        result.speed = (
            sum(c.seconds * log.speeds[c.index] for c in cells) / busy
            if in_process and busy else (start + log.last) / 2
        )
        passes.append(result)
    return passes


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(worker_pids) -> float:
    """Peak resident memory of this process plus every live worker
    (read while the workers are still up)."""
    own = _vm_hwm_mb(os.getpid())
    if own == 0.0:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(
        _vm_hwm_mb(pid) for pid in set(worker_pids) if pid != os.getpid()
    )


def simulated_metrics(result: PassResult) -> Dict[str, float]:
    """Mean MoCA SLA rate, STP and fairness over a pass's cells."""
    moca = [c.summary for c in result.acc.cells() if c.policy == "moca"]
    n = max(len(moca), 1)
    return {
        "moca_sla_rate": sum(s.sla_rate for s in moca) / n,
        "moca_stp": sum(s.stp for s in moca) / n,
        "moca_fairness": sum(s.fairness for s in moca) / n,
    }


def e2e_metrics(
    passes: Sequence[PassResult],
    setup_samples: Sequence[Tuple[float, float]],
    rss_mb: float,
    scaled: bool = True,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metrics of a timed region, plus sample counts.

    ``setup_samples`` are ``(seconds, host speed)`` pairs.  With
    ``scaled``, every time is in reference-host seconds (see
    :data:`REF_KERNEL_S`)."""

    def speed(x: float) -> float:
        return x if scaled else 1.0

    cells = [
        (c, speed(p.cell_speeds.get(c.index, p.speed)))
        for p in passes for c in p.acc.cells()
    ]
    cell_ms = [c.seconds * 1e3 * f for c, f in cells]
    p90 = percentile(cell_ms, 0.9)
    out = {
        "cells_per_s": len(cells) / sum(
            p.seconds * speed(p.speed) for p in passes
        ),
        "cell_ms_p50": percentile(cell_ms, 0.5),
        "cell_ms_p90": p90,
    }
    for p in POLICIES:
        mine = [(c, f) for c, f in cells if c.policy == p]
        secs = sum(c.seconds * f for c, f in mine)
        out[f"events_per_s.{p}"] = (
            sum(c.events for c, _ in mine) / secs if secs else 0.0
        )
    out["setup_s"] = statistics.median(
        secs * speed(s) for secs, s in setup_samples
    )
    out["peak_rss_mb"] = rss_mb
    samples = {
        "passes": len(passes),
        "cells": len(cells),
        "cells_beyond_p90": sum(1 for x in cell_ms if x > p90),
        "setup_samples": len(setup_samples),
    }
    return out, samples


# -- correctness -------------------------------------------------------


def unfinished_cells(passes: Sequence[PassResult]) -> List[str]:
    """Cells whose summary lost tasks (every task must finish)."""
    bad = []
    for p in passes:
        for c in p.acc.cells():
            want = p.specs[c.spec_index].num_tasks
            if c.summary.num_tasks != want:
                bad.append(
                    f"{c.label}/{c.policy}/seed {c.seed}: "
                    f"{c.summary.num_tasks} of {want} tasks finished"
                )
    return bad


def golden_problems(root: Path) -> List[str]:
    """Golden-size reference fingerprints vs the checked-in goldens."""
    from repro.experiments.golden import compute_reference_fingerprints

    golden = json.loads((root / GOLDEN).read_text())
    actual = compute_reference_fingerprints(
        num_tasks=golden["num_tasks"], seeds=tuple(golden["seeds"])
    )
    wrong = sorted(
        k for k in set(actual) | set(golden["cells"])
        if actual.get(k) != golden["cells"].get(k)
    )
    return [f"golden fingerprint mismatch: {k}" for k in wrong]


def export_problems(result: PassResult) -> List[str]:
    """A pass's export bytes vs a serial in-process run of the same
    scenarios through ``runner.run_scenario``."""
    from repro import reporting
    from repro.experiments.runner import run_scenario

    problems = []
    for spec in result.specs:
        label = spec.label
        if f"{label}.json" not in result.files:
            continue
        matrix = {label: run_scenario(spec)}
        for fmt, export in (
            ("json", reporting.sweep_to_json),
            ("csv", reporting.sweep_to_csv),
        ):
            if export(matrix) != result.files[f"{label}.{fmt}"]:
                problems.append(f"{label}.{fmt} differs from serial export")
    return problems


def fingerprints(result: PassResult) -> Dict[int, str]:
    from repro.experiments.golden import summary_fingerprint

    out = {c.index: summary_fingerprint(c.summary) for c in result.acc.cells()}
    out.update({f.index: "failed" for f in result.acc.failures()})
    return out


# -- traced run --------------------------------------------------------


def traced_run(
    workload: Workload,
    setup: Setup,
    seed: int,
    seconds: float,
    out_dir: Path,
) -> Tuple[Dict[str, float], List[PassResult], List[str], List[Recorder]]:
    """Rounds of one untraced and one traced pass over pass 0's cells,
    as many rounds as fit the untraced run's pass count (at least
    one); per-layer metrics come from the first round.  The parent of a pool only sees the sweep layers, so
    a pool workload also runs each round serially in this process and
    takes the cell layers (and the tracing overhead) from that.  An
    untraced warm-up pass per runner comes first, so the compared
    passes start equally warm."""
    from repro.experiments.parallel import ParallelRunner

    specs = workload.pass_specs(seed, 0)
    runners = [setup.runner]
    if workload.pool:
        runners.append(ParallelRunner(workers=1))
    passes = [run_pass(r, specs, out_dir) for r in runners]
    reference = fingerprints(passes[0])
    problems: List[str] = []
    first = None  # (recorder, traced pass) per runner, first round
    ratios = []
    rounds = max(1, workload.passes(seconds) // (2 * len(runners)))
    for _ in range(rounds):
        row = []
        for runner in runners:
            plain = run_pass(runner, specs, out_dir)
            rec = Recorder()
            with rec.installed():
                traced = run_pass(runner, specs, out_dir)
            passes += [plain, traced]
            if any(fingerprints(p) != reference for p in (plain, traced)):
                problems.append(
                    "simulated outputs differ between passes "
                    f"(round {len(ratios)})"
                )
            row.append((rec, traced))
        # The last runner executes the cells in this process.
        ratios.append(traced.seconds / plain.seconds)
        if first is None:
            first = row
    (ex_rec, ex_pass), (cell_rec, cell_pass) = first[0], first[-1]
    metrics = executor_layer_metrics(
        ex_rec, ex_pass.acc, setup.workers,
        sum(len(t.encode()) for t in ex_pass.files.values()),
    )
    cells = cell_pass.acc.cells()
    metrics.update(cell_layer_metrics(cell_rec, cells))
    metrics.update({
        "latency.cost_build_ms": setup.cost_build_ms,
        "latency.cost_cache_misses": setup.cold_misses + sum(
            c.cost_cache_misses for c in cells
        ),
        "executor.warmup_ms": setup.warmup_ms,
        "executor.warmup_timeouts": setup.runner.total_warmup_timeouts,
        "trace.overhead_ratio": statistics.median(ratios),
    })
    return metrics, passes, problems, [rec for rec, _ in first]
