"""The reference engine loop: one event per step, nothing cached.

``Simulator(..., solver="reference")`` runs :func:`run` instead of
the horizon kernel (:meth:`repro.sim.engine.Simulator.
_advance_horizon`).  The loop is written to be read, and the kernel
is checked against it:

- the differential suite (``tests/test_engine_differential.py``)
  compares whole runs of the two loops on adversarial inputs;
- under ``REPRO_CHECK=1`` the kernel compares its fused solve with
  :func:`solve_block_times` on its first epoch and every 64th.

Each step of :func:`run` does, in order: dispatch the arrivals that
are due, let the policy decide (when the cadence grants it) and apply
the plan, validate the tile accounting, solve every running job's
block time from scratch, advance to the next event, and retire the
blocks that completed.  No state survives from one step to the next
except the simulator's own, so a stale cache in the kernel cannot
hide here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.memory.arbiter import allocate_bandwidth
from repro.sim.job import JobPhase
from repro.sim.trace import TraceEvent
from repro.tolerances import COMPLETION_EPS, MIN_DT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


def solve_block_times(sim: "Simulator") -> Dict[str, float]:
    """Cycles each unstalled running job's current block needs under
    the current allocation (the fluid rate law).

    Per job: the unconstrained Algorithm 1 prediction ``T_full`` from
    :meth:`~repro.core.latency.BlockCost.predict`, and the DRAM demand
    ``From_DRAM / T_full``.  The validated dict arbiter
    :func:`~repro.memory.arbiter.allocate_bandwidth` splits the
    channel, and a job's block takes
    ``max(T_full, From_DRAM / share)`` cycles.
    """
    dram_bw = sim.mem.dram_bandwidth
    l2_bw = sim.mem.l2_bandwidth
    overlap_f = sim.soc.overlap_f
    active = [j for j in sim.running if not j.is_stalled(sim.now)]
    demands: Dict[str, float] = {}
    t_full: Dict[str, float] = {}
    for job in active:
        cost = job.current_block
        full = cost.predict(job.tiles, dram_bw, l2_bw, overlap_f)
        t_full[job.job_id] = full
        demands[job.job_id] = (
            cost.from_dram_bytes / full if full > 0 else 0.0
        )
    caps = {j.job_id: j.bw_cap for j in active if j.bw_cap is not None}
    # Achieved total bandwidth degrades when the co-runners' capped
    # demand oversubscribes the channel (row-buffer thrash under
    # interleaving); throttled systems that keep the total under the
    # peak retain single-stream efficiency.
    shares: Dict[str, float] = {}
    if demands:
        wants = {
            jid: min(d, caps.get(jid, float("inf")))
            for jid, d in demands.items()
        }
        total_wants = sum(wants.values())
        streams = sum(1 for w in wants.values() if w > 0)
        effective = sim.mem.dram.effective_bandwidth(
            streams, oversubscribed=total_wants > dram_bw
        )
        shares = allocate_bandwidth(demands, effective, caps)
    times: Dict[str, float] = {}
    for job in active:
        jid = job.job_id
        from_dram = job.current_block.from_dram_bytes
        share = shares.get(jid, 0.0)
        if from_dram <= 0:
            times[jid] = t_full[jid]
        elif share <= 0:
            times[jid] = float("inf")
        else:
            times[jid] = max(t_full[jid], from_dram / share)
    return times


def run(sim: "Simulator") -> None:
    """Run ``sim`` to completion, one event per step."""
    # Imported here: the engine module imports this one.
    from repro.sim.engine import SimulationError

    while len(sim.finished) < len(sim.jobs):
        sim.events += 1
        if sim.events > sim._max_events:
            raise SimulationError(
                f"exceeded {sim._max_events} events; "
                f"{len(sim.finished)}/{len(sim.jobs)} tasks done "
                f"at cycle {sim.now:,.0f}"
            )
        if sim._pending and sim._pending[0][0] <= sim.now + COMPLETION_EPS:
            sim._dispatch_arrivals()
        if sim._should_decide():
            sim.decisions += 1
            sim._decided_boundaries = sim._boundaries
            sim._last_decision_at = sim.now
            sim.controller.apply(sim.policy.decide(sim))
        sim._validate()
        times = solve_block_times(sim)
        sim.block_time_recomputes += 1
        dt = _next_event_dt(sim, times)
        if dt is None:
            if sim._pending:
                # Idle gap: jump to the next arrival.
                sim.now = sim._pending[0][0]
                continue
            raise SimulationError(
                f"deadlock at cycle {sim.now:,.0f}: "
                f"{len(sim.ready)} ready, {len(sim.running)} running, "
                f"policy {sim.policy.name!r} made no progress"
            )
        _advance(sim, max(dt, MIN_DT), times)
        _retire_completed(sim)


def _next_event_dt(
    sim: "Simulator", times: Dict[str, float]
) -> Optional[float]:
    """Cycles to the next arrival, stall expiry or block completion,
    or None when nothing can happen."""
    now = sim.now
    candidates = []
    if sim._pending:
        candidates.append(sim._pending[0][0] - now)
    for job in sim.running:
        if now < job.stall_until:
            candidates.append(job.stall_until - now)
        elif times[job.job_id] != float("inf"):
            candidates.append((1.0 - job.progress) * times[job.job_id])
    candidates = [c for c in candidates if c >= 0]
    return min(candidates) if candidates else None


def _advance(sim: "Simulator", dt: float, times: Dict[str, float]) -> None:
    """Move time forward by ``dt``; unstalled jobs accrue progress."""
    for job in sim.running:
        if sim.now < job.stall_until:
            continue
        T = times[job.job_id]
        if T == float("inf") or T <= 0:
            continue
        job.progress = min(1.0, job.progress + dt / T)
    sim.now += dt


def _retire_completed(sim: "Simulator") -> None:
    """Retire every block that completed, in running order, and
    finish the jobs whose last block it was."""
    for job in list(sim.running):
        if job.progress < 1.0 - COMPLETION_EPS:
            continue
        job.block_idx += 1
        job.progress = 0.0
        sim._boundaries += 1
        if sim.trace.enabled:
            sim.trace.log(sim.now, TraceEvent.BLOCK_DONE, job.job_id,
                          f"block={job.block_idx - 1}")
        if job.block_idx >= job.num_blocks:
            job.phase = JobPhase.FINISHED
            job.finished_at = sim.now
            sim._tiles_held -= job.tiles
            job.tiles = 0
            job.bw_cap = None
            sim.running.remove(job)
            sim.finished.append(job)
            sim.trace.log(sim.now, TraceEvent.FINISH, job.job_id)
            sim.policy.on_job_finished(sim, job)
