"""PREMA baseline (Choi & Rhu, HPCA 2020) — Section IV-D, baseline 1.

PREMA time-multiplexes the whole accelerator across DNNs with a
predictive, token-based priority scheduler:

- every waiting task accumulates *tokens* proportionally to its static
  priority and the time it has waited;
- when the accelerator becomes free (or a preemption fires), the task
  with the most tokens runs next on **all** compute resources;
- a running task is preempted at a layer (here: block) checkpoint when
  a waiting task's token count exceeds its own by the preemption
  threshold, paying the checkpoint/restore overhead.

Because execution is strictly temporal, co-location never causes
bandwidth contention — but short tasks queue behind long ones, which
is why PREMA trails every spatial scheme on SLA and STP in Figures
5-8.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.policy import Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job

#: Cycles to checkpoint + restore accelerator state on a preemption
#: (scratchpad/accumulator flush and refill over the memory system).
PREEMPTION_OVERHEAD_CYCLES = 50_000


class PremaPolicy(Policy):
    """Token-based temporal multiplexing of the full accelerator.

    Attributes:
        preemption_threshold: A waiting task preempts when its tokens
            exceed the running task's by this multiplicative factor.
        preemption_overhead: Checkpoint/restore stall charged to the
            incoming task on a preemptive switch.
    """

    name = "prema"
    #: Tokens are priority x wait; no decision reads an SLA target.
    reads_sla_targets = False

    def __init__(
        self,
        preemption_threshold: float = 2.0,
        preemption_overhead: int = PREEMPTION_OVERHEAD_CYCLES,
    ) -> None:
        if preemption_threshold < 1.0:
            raise ValueError("preemption_threshold must be >= 1")
        if preemption_overhead < 0:
            raise ValueError("preemption_overhead must be >= 0")
        self.preemption_threshold = preemption_threshold
        self.preemption_overhead = preemption_overhead
        self._preempted_by_us = False

    def tokens(self, job: "Job", now: float) -> float:
        """PREMA token count: tokens accrue proportionally to the
        task's priority for every cycle it waits (the paper's scheme —
        tokens are not normalized by job length, which is why short
        tasks queue behind long high-priority ones)."""
        waited = max(0.0, now - job.task.dispatch_cycle)
        return (job.task.priority + 1) * waited

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Keep exactly one job running; preempt at block checkpoints.

        A preemptive switch is one atomic plan: preempt the runner,
        admit the challenger onto every tile, and charge the
        checkpoint/restore overhead as an extra stall.
        """
        if not sim.ready:
            return EMPTY_PLAN
        now = sim.now
        if sim.running:
            runner = sim.running[0]
            if not runner.at_block_boundary or runner.is_stalled(now):
                return EMPTY_PLAN
            challenger, tokens = self._best_waiting(sim)
            if tokens > self.preemption_threshold * max(
                self.tokens(runner, now), 1e-12
            ):
                # Built from live ready/running jobs: the trusted
                # constructor skips redundant re-validation.
                return AllocationPlan.trusted(
                    preemptions=(runner.job_id,),
                    admissions=((challenger.job_id, sim.soc.num_tiles),),
                    stalls=(
                        (challenger.job_id, self.preemption_overhead),
                    ),
                )
            return EMPTY_PLAN
        nxt, _ = self._best_waiting(sim)
        stalls = ()
        if nxt.preemptions > 0:
            # A job resuming after a preemption pays the restore half
            # of the checkpoint overhead on re-admission.
            stalls = ((nxt.job_id, self.preemption_overhead),)
        return AllocationPlan.trusted(
            admissions=((nxt.job_id, sim.soc.num_tiles),), stalls=stalls
        )

    def _best_waiting(self, sim: "Simulator") -> Tuple["Job", float]:
        """The waiting job with the most tokens, and its tokens.

        Ties break by priority, then earlier dispatch, then larger
        job id.  ``sim.ready`` is non-empty and sorted by
        ``(dispatch_cycle, job_id)``, and within one priority level
        tokens never grow with the dispatch cycle, so each level's
        winner is its earliest-dispatched job, the last of them when
        several share that cycle.  One pass finds these heads; the
        key is evaluated on them alone.
        """
        heads: Dict[int, "Job"] = {}
        for job in sim.ready:
            task = job.task
            head = heads.get(task.priority)
            if (
                head is None
                or head.task.dispatch_cycle == task.dispatch_cycle
            ):
                heads[task.priority] = job
        now = sim.now
        # Job ids are unique, so the comparison never reaches the job.
        best = max(
            (self.tokens(j, now), j.task.priority,
             -j.task.dispatch_cycle, j.job_id, j)
            for j in heads.values()
        )
        return best[4], best[0]

    def reset(self) -> None:
        """Stateless between runs."""
