"""Algorithm 3: the MoCA priority- and memory-aware scheduler.

The scheduler selects which dispatched tasks run concurrently.  Each
scheduling round it:

1. scores every waiting task: the static user priority plus a
   *slowdown* term — how long the task has waited relative to its
   estimated isolated runtime — so starving tasks climb the queue;
2. flags tasks whose estimated average DRAM demand exceeds half the
   DRAM bandwidth as **memory-intensive**;
3. fills the execution group greedily by score, and whenever it admits
   a memory-intensive task it pairs it with the highest-scored
   *non*-memory-intensive task remaining, balancing the group's
   bandwidth appetite (this pairing is what lifts Workload-C's
   throughput in Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass
class SchedulableTask:
    """A task-queue entry (Section III-D's TaskQueue record).

    Attributes:
        task_id: Unique id.
        dispatched_at: Cycle the task entered the queue.
        user_priority: Static user-given priority (0-11).
        target_latency: SLA target in cycles (from dispatch).
        estimated_time: Estimated isolated runtime in cycles.
        est_avg_bw: Estimated average DRAM demand in bytes/cycle.
        score: Last computed dynamic score (set by the scheduler).
        mem_intensive: Last computed memory-intensiveness flag.
    """

    task_id: str
    dispatched_at: float
    user_priority: float
    target_latency: float
    estimated_time: float
    est_avg_bw: float
    score: float = 0.0
    mem_intensive: bool = False


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the MoCA scheduler.

    Attributes:
        score_threshold: ExQueue admission requires a score strictly
            above it (Alg. 3 line 14).  At 0, a priority-0 task that
            has not waited yet scores exactly 0 and is not admitted.
        mem_intensive_fraction: Fraction of DRAM bandwidth above which
            a task is flagged memory-intensive (paper: 0.5).
        tiles_per_task: Tiles granted to each admitted task.
        max_group: Maximum concurrently running tasks (None = derived
            from the tile budget).
    """

    score_threshold: float = 0.0
    mem_intensive_fraction: float = 0.5
    tiles_per_task: int = 2
    max_group: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_intensive_fraction <= 1.0:
            raise ValueError("mem_intensive_fraction must be in (0, 1]")
        if self.tiles_per_task <= 0:
            raise ValueError("tiles_per_task must be positive")
        if self.max_group is not None and self.max_group <= 0:
            raise ValueError("max_group must be positive")


class MoCAScheduler:
    """The Algorithm 3 scheduler.

    Attributes:
        config: Scheduler tunables.
        dram_bandwidth: DRAM bandwidth in bytes/cycle, for the
            memory-intensiveness test.
    """

    def __init__(self, dram_bandwidth: float,
                 config: Optional[SchedulerConfig] = None) -> None:
        if dram_bandwidth <= 0:
            raise ValueError("dram_bandwidth must be positive")
        self.dram_bandwidth = dram_bandwidth
        self.config = config if config is not None else SchedulerConfig()

    def score_task(self, task: SchedulableTask, now: float) -> float:
        """Algorithm 3 lines 3-6: priority plus waiting slowdown."""
        waiting = max(0.0, now - task.dispatched_at)
        if task.estimated_time <= 0:
            raise ValueError(f"{task.task_id}: estimated_time must be > 0")
        slowdown = waiting / task.estimated_time
        return task.user_priority + slowdown

    def is_mem_intensive(self, task: SchedulableTask) -> bool:
        """Algorithm 3 line 7: average demand above the BW fraction."""
        threshold = self.config.mem_intensive_fraction * self.dram_bandwidth
        return task.est_avg_bw > threshold

    def select(
        self,
        now: float,
        queue: Sequence[SchedulableTask],
        available_tiles: int,
    ) -> List[SchedulableTask]:
        """Run one scheduling round.

        Args:
            now: Current cycle.
            queue: Waiting tasks.
            available_tiles: Free accelerator tiles.

        Returns:
            The tasks to start now, in admission order, each consuming
            ``config.tiles_per_task`` tiles.  Never admits more tasks
            than the tile budget (or ``config.max_group``) allows.
        """
        if available_tiles < 0:
            raise ValueError("available_tiles must be non-negative")
        slots = available_tiles // self.config.tiles_per_task
        if self.config.max_group is not None:
            slots = min(slots, self.config.max_group)
        if slots <= 0 or not queue:
            return []

        # Lines 1-12: update scores and memory-intensiveness flags.
        for task in queue:
            task.score = self.score_task(task, now)
            task.mem_intensive = self.is_mem_intensive(task)

        # Lines 14-15: populate and sort the execution queue.
        ex_queue = [
            t for t in queue if t.score > self.config.score_threshold
        ]
        ex_queue.sort(key=lambda t: (-t.score, t.dispatched_at, t.task_id))

        # Lines 17-25: form the co-running group, pairing each admitted
        # memory-intensive task with a non-memory-intensive co-runner.
        group: List[SchedulableTask] = []
        while ex_queue and len(group) < slots:
            current = ex_queue.pop(0)
            group.append(current)
            if current.mem_intensive and len(group) < slots:
                partner = self._find_non_mem_intensive(ex_queue)
                if partner is not None:
                    ex_queue.remove(partner)
                    group.append(partner)
        return group

    @staticmethod
    def _find_non_mem_intensive(
        ex_queue: Sequence[SchedulableTask],
    ) -> Optional[SchedulableTask]:
        """Algorithm 3 line 22: best non-memory-intensive candidate."""
        for task in ex_queue:
            if not task.mem_intensive:
                return task
        return None
