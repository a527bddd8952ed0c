"""The benchmark's workloads.

Every workload is closed loop: one *pass* is a sweep of cells run to
completion through the supervised executor, and the next pass starts
only when the previous one has been journaled and exported.  Cell
seeds come from the benchmark's ``--seed`` alone, so the program sees
nothing but the tasks it generates from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

#: Cell seeds of run ``--seed s`` lie in ``[s * SEED_STRIDE + 1,
#: (s + 1) * SEED_STRIDE]``: distinct runs never share a cell.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        why: Why the workload exists; mirrored in ``BENCHMARK.json``.
        scenarios: Registry scenario names of one pass (empty = every
            registered scenario).
        num_tasks: Tasks per cell.
        seeds_per_pass: Cell seeds per scenario in one pass.
        pool: Run passes on a warm process pool (``min(2, nproc)``
            workers) instead of serially in the benchmark process.
        pass_seconds: Wall seconds of one untraced pass on a 2-vCPU
            host of typical speed; sizes the run (see :meth:`passes`).
        cadence: Decision-cadence override (``None`` = scenario's own).
    """

    name: str
    why: str
    scenarios: Tuple[str, ...]
    num_tasks: int
    seeds_per_pass: int
    pass_seconds: float
    pool: bool = False
    cadence: Optional[str] = None

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``--seconds seconds``.

        A fixed count rather than a deadline: a run of a given seed
        then attempts the same cells, and a cell that fails does so
        in every run of that seed, so ``attempted`` and ``failed``
        repeat exactly.  The timed region lasts about ``seconds`` on
        the host ``pass_seconds`` was taken on."""
        return max(1, round(seconds / self.pass_seconds))

    def pass_seeds(self, seed: int, index: int) -> Tuple[int, ...]:
        """Cell seeds of pass ``index`` of run ``--seed seed``."""
        if not 0 <= index * self.seeds_per_pass < SEED_STRIDE:
            raise ValueError(f"pass index {index} out of range")
        base = seed * SEED_STRIDE + index * self.seeds_per_pass
        return tuple(base + j + 1 for j in range(self.seeds_per_pass))

    def pass_specs(self, seed: int, index: int) -> List:
        """The scenario specs of one pass (every policy runs each)."""
        from repro.scenarios import get_scenario, scenario_names

        overrides = {
            "num_tasks": self.num_tasks,
            "seeds": self.pass_seeds(seed, index),
        }
        if self.cadence is not None:
            overrides["decision_cadence"] = self.cadence
        names = self.scenarios or tuple(scenario_names())
        return [replace(get_scenario(n), **overrides) for n in names]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-matrix",
            why=(
                "the paper's nine ref-* scenarios x four policies at 120 "
                "tasks, serial: the evaluation as users run it, where "
                "engine loop and policy decide dominate host time"
            ),
            scenarios=(
                "ref-a-qos-h", "ref-a-qos-m", "ref-a-qos-l",
                "ref-b-qos-h", "ref-b-qos-m", "ref-b-qos-l",
                "ref-c-qos-h", "ref-c-qos-m", "ref-c-qos-l",
            ),
            num_tasks=120,
            seeds_per_pass=1,
            pass_seconds=2.5,
        ),
        Workload(
            name="small-cell-sweep",
            why=(
                "all 15 registry scenarios x four policies at 16 tasks "
                "on a warm 2-worker pool with journal and JSON/CSV "
                "export: per-cell overhead dominates, the engine does "
                "little"
            ),
            scenarios=(),
            num_tasks=16,
            seeds_per_pass=4,
            pass_seconds=1.7,
            pool=True,
        ),
        Workload(
            name="deep-queue",
            why=(
                "bursty-mixed at 1100 tasks under block-boundary "
                "cadence, serial: deep ready queues stress Prema and "
                "Planaria scans and the per-job cache LRU evicts"
            ),
            scenarios=("bursty-mixed",),
            num_tasks=1100,
            seeds_per_pass=1,
            pass_seconds=6.0,
            cadence="block-boundary",
        ),
    )
}
