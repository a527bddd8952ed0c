"""Differential pins: the horizon kernel against the reference loop.

The kernel (``solver="kernel"``, the engine default) fuses solve,
advance and retirement over whole allocation epochs; the reference
loop (``solver="reference"``, :mod:`repro.sim.reference`) re-solves
block times from scratch on every event.  Both must produce the same
simulation — ``==`` on every per-task float, the same makespan, the
same event and decision counts, or the same error message.

Hypothesis draws adversarial inputs for all four policies under all
three decision cadences:

- arrivals landing in the very cycle another task completes, and
  several tasks dispatched in one instant;
- blocks with no DRAM traffic at all;
- a 1-tile SoC;
- ``interval:`` cadences shorter than any block;
- long idle gaps between arrivals;
- a policy that preempts and re-admits the same job in one plan.

Half the examples run with the ``REPRO_CHECK`` sanitizer on, so the
kernel's own solve spot check sees the same inputs.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sanitizer as sanitizer
from repro.config import DEFAULT_SOC
from repro.core.latency import BlockCost, NetworkCost, build_network_cost
from repro.core.policy import MoCAPolicy
from repro.experiments.runner import default_policies
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.layers import LayerKind
from repro.models.zoo import build_model
from repro.sim.engine import SimulationError, Simulator
from repro.sim.job import Task
from repro.sim.plan import EMPTY_PLAN, AllocationPlan, DecisionCadence
from repro.sim.policy import Policy

#: The loops every kernel run is compared against.
ORACLES = ("reference",)

#: Small networks keep each example to a few milliseconds.
NETWORKS = ("kws", "squeezenet", "yolo_lite")

CADENCE_MODES = ("every-event", "block-boundary", "interval")

#: Enough events for every drawn scenario to finish; a runaway loop
#: still fails fast (and identically in both loops).
MAX_EVENTS = 100_000

SETTINGS = settings(
    derandomize=True,
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SOCS = {}


def _soc_mem(num_tiles):
    if num_tiles not in _SOCS:
        soc = DEFAULT_SOC.with_tiles(num_tiles)
        _SOCS[num_tiles] = (soc, MemoryHierarchy.from_soc(soc))
    return _SOCS[num_tiles]


def _zero_dram(cost):
    """The network with every other block's DRAM traffic removed (the
    first block always becomes compute-only)."""
    blocks = tuple(
        BlockCost(
            name=f"{b.name}-nodram",
            kind=LayerKind.COMPUTE,
            compute_terms=b.compute_terms,
            from_dram_bytes=0.0,
            total_mem_bytes=b.total_mem_bytes,
            scaling_alpha=b.scaling_alpha,
        )
        if i % 2 == 0 and b.compute_terms else b
        for i, b in enumerate(cost.blocks)
    )
    return NetworkCost(
        network_name=f"{cost.network_name}-nodram", blocks=blocks
    )


def _task(soc, mem, task_id, network, zero_dram, dispatch, priority):
    cost = build_network_cost(build_model(network), soc, mem)
    if zero_dram:
        cost = _zero_dram(cost)
    args = (mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f)
    isolated = cost.total_prediction(soc.num_tiles, *args)
    return Task(
        task_id=task_id,
        network_name=cost.network_name,
        cost=cost,
        dispatch_cycle=dispatch,
        priority=priority,
        qos_target_cycles=2.5 * cost.total_prediction(1, *args),
        isolated_cycles=isolated,
    )


#: Inter-arrival gaps: 0 dispatches in the same instant, 1e9 leaves
#: the SoC idle far longer than any network runs.
GAPS = (0.0, 0.0, 1.0, 2e4, 3e5, 1e9)

task_specs = st.lists(
    st.tuples(
        st.sampled_from(NETWORKS),
        st.booleans(),              # zero-DRAM blocks
        st.sampled_from(GAPS),      # gap since the previous arrival
        st.integers(0, 11),         # priority
    ),
    min_size=1,
    max_size=6,
)

scenarios = st.fixed_dictionaries({
    "num_tiles": st.sampled_from((1, 2, 8)),
    "tasks": task_specs,
    # Index of the task whose completion cycle an extra arrival is
    # aligned to (None: no aligned arrival).
    "align": st.one_of(st.none(), st.integers(0, 5)),
    # Intervals of 1 and 100 cycles are shorter than any block.
    "interval": st.sampled_from((1.0, 100.0, 5e5)),
    "sanitize": st.booleans(),
})


@contextmanager
def _sanitizer(on):
    saved = sanitizer.enabled
    sanitizer.enabled = on
    try:
        yield
    finally:
        sanitizer.enabled = saved


def _outcome(soc, mem, tasks, factory, cadence, solver):
    """Everything a run produces that both loops must agree on."""
    policy = factory()
    policy.reset()
    sim = Simulator(soc, tasks, policy, mem=mem, cadence=cadence,
                    solver=solver, max_events=MAX_EVENTS)
    try:
        result = sim.run()
    except SimulationError as exc:
        return ("error", str(exc))
    return (
        result.makespan,
        tuple(result.results),
        result.events,
        result.decisions,
    )


def _build(scenario):
    soc, mem = _soc_mem(scenario["num_tiles"])
    tasks = []
    now = 0.0
    for i, (net, zero, gap, prio) in enumerate(scenario["tasks"]):
        now += gap
        tasks.append(_task(soc, mem, f"t{i}", net, zero, now, prio))
    return soc, mem, tasks


def _align(soc, mem, tasks, factory, cadence, index):
    """Add an arrival in the exact cycle a task of a first run
    completed (unchanged when that run fails)."""
    outcome = _outcome(soc, mem, tasks, factory, cadence, "kernel")
    if outcome[0] == "error":
        return tasks
    results = outcome[1]
    at = results[index % len(results)].finished_at
    net = tasks[0].network_name.replace("-nodram", "")
    return tasks + [_task(soc, mem, "aligned", net, False, at, 11)]


def _check(scenario, factory, mode):
    soc, mem, tasks = _build(scenario)
    cadence = DecisionCadence(
        mode=mode,
        interval=scenario["interval"] if mode == "interval" else None,
    )
    with _sanitizer(scenario["sanitize"]):
        if scenario["align"] is not None:
            tasks = _align(soc, mem, tasks, factory, cadence,
                           scenario["align"])
        kernel = _outcome(soc, mem, tasks, factory, cadence, "kernel")
        for oracle in ORACLES:
            other = _outcome(soc, mem, tasks, factory, cadence, oracle)
            assert kernel == other, f"kernel != {oracle}"


@pytest.mark.parametrize("mode", CADENCE_MODES)
@pytest.mark.parametrize("policy", sorted(default_policies()))
@SETTINGS
@given(scenario=scenarios)
def test_kernel_matches_oracle(policy, mode, scenario):
    _check(scenario, default_policies()[policy], mode)


class _ChurnPolicy(Policy):
    """Adversarial decisions: every third round preempts the first
    running job and re-admits it in the same plan on a different tile
    count; every other round re-caps the last runner's bandwidth."""

    name = "churn"

    def reset(self):
        self._calls = 0

    def decide(self, sim):
        self._calls += 1
        calls = self._calls
        free = sim.free_tiles
        preemptions = ()
        admissions = []
        caps = ()
        if sim.running and calls % 3 == 0:
            victim = sim.running[0]
            free += victim.tiles
            tiles = max(1, min(free, victim.tiles % free + 1))
            preemptions = (victim.job_id,)
            admissions.append((victim.job_id, tiles))
            free -= tiles
        for job in sim.ready:
            if free <= 0:
                break
            tiles = min(free, 1 + calls % 2)
            admissions.append((job.job_id, tiles))
            free -= tiles
        if sim.running and calls % 2 == 0:
            last = sim.running[-1]
            if last.job_id not in preemptions:
                cap = None if calls % 4 == 0 else 0.3 * sim.mem.dram_bandwidth
                caps = ((last.job_id, cap),)
        if not (preemptions or admissions or caps):
            return EMPTY_PLAN
        return AllocationPlan(
            preemptions=preemptions,
            admissions=tuple(admissions),
            bw_caps=caps,
        )


@pytest.mark.parametrize("mode", CADENCE_MODES)
@SETTINGS
@given(scenario=scenarios)
def test_preempt_and_readmit_in_one_instant(mode, scenario):
    _check(scenario, _ChurnPolicy, mode)


class _NoFastPath(MoCAPolicy):
    fast_path = False


@SETTINGS
@given(scenario=scenarios)
def test_moca_without_fast_path_matches_kernel(scenario):
    """MoCA with its retired-blocks fast path off makes the same
    decisions: the kernel run of it equals the shipped MoCA's."""
    soc, mem, tasks = _build(scenario)
    cadence = DecisionCadence()
    with _sanitizer(scenario["sanitize"]):
        plain = _outcome(soc, mem, tasks, MoCAPolicy, cadence, "kernel")
        slow = _outcome(soc, mem, tasks, _NoFastPath, cadence, "kernel")
    assert plain == slow
