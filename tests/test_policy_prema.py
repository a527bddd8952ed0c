"""Tests for the PREMA temporal-multiplexing baseline."""

from bisect import insort
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.prema import PremaPolicy
from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.engine import _READY_KEY, Simulator, run_simulation
from repro.sim.job import Job, Task
from repro.sim.plan import EMPTY_PLAN, AllocationPlan
from repro.sim.qos import QosLevel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


class TestTokens:
    def test_tokens_grow_with_wait(self, task_factory):
        policy = PremaPolicy()
        job = Job(task=task_factory(priority=5, dispatch=0.0))
        assert policy.tokens(job, 2000.0) > policy.tokens(job, 1000.0)

    def test_tokens_scale_with_priority(self, task_factory):
        policy = PremaPolicy()
        low = Job(task=task_factory(task_id="l", priority=0))
        high = Job(task=task_factory(task_id="h", priority=11))
        assert policy.tokens(high, 1e6) > policy.tokens(low, 1e6)

    def test_no_negative_tokens(self, task_factory):
        policy = PremaPolicy()
        job = Job(task=task_factory(dispatch=1e6))
        assert policy.tokens(job, 0.0) == 0.0


class TestScheduling:
    def test_one_job_at_a_time(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(4)]
        policy = PremaPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim._dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 1
        assert sim.running[0].tiles == soc.num_tiles

    def test_highest_token_first(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="low", priority=0, dispatch=0.0),
            task_factory(task_id="high", priority=11, dispatch=0.0),
        ]
        policy = PremaPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim.now = 1000.0
        sim._dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert sim.running[0].job_id == "high"

    def test_all_finish(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id=f"t{i}", network=n, dispatch=i * 1e4)
            for i, n in enumerate(["kws", "alexnet", "squeezenet"])
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        assert len(result.results) == 3

    def test_preemption_occurs_for_urgent_arrival(self, soc, mem,
                                                  task_factory):
        # A long low-priority job is overtaken by a high-priority one
        # that waits long enough to exceed the token threshold.
        tasks = [
            task_factory(task_id="long", network="yolov2", priority=0,
                         dispatch=0.0),
            task_factory(task_id="vip", network="kws", priority=11,
                         dispatch=1e5),
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        long_result = result.result_for("long")
        vip = result.result_for("vip")
        assert long_result.preemptions >= 1
        assert vip.finished_at < long_result.finished_at

    def test_preemption_charges_overhead(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="long", network="yolov2", priority=0),
            task_factory(task_id="vip", network="kws", priority=11,
                         dispatch=1e5),
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        assert result.result_for("vip").stall_cycles > 0

    def test_serial_execution_no_contention(self, soc, mem, task_factory):
        # Temporal multiplexing: each job runs alone, so its runtime
        # (minus switch stalls) matches the isolated prediction.
        tasks = [
            task_factory(task_id=f"t{i}", network="kws",
                         dispatch=float(i))
            for i in range(2)
        ]
        result = run_simulation(soc, tasks, PremaPolicy(), mem=mem)
        for r in result.results:
            assert r.runtime - r.stall_cycles == pytest.approx(
                r.isolated_cycles, rel=0.01
            )


class TestConstruction:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PremaPolicy(preemption_threshold=0.5)

    def test_invalid_overhead(self):
        with pytest.raises(ValueError):
            PremaPolicy(preemption_overhead=-1)


# -- challenger selection: per-level heads vs the full-queue scan -------

_COST = build_network_cost(
    build_model("kws"), DEFAULT_SOC, MemoryHierarchy.from_soc(DEFAULT_SOC)
)

#: A few shared values so dispatch cycles, and ``now``, collide often.
_CYCLES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1e5, 1e5 + 1e-9, 3e6]),
    st.floats(min_value=0.0, max_value=4e6, allow_nan=False),
)


def _reference_best(policy, sim):
    """The full-queue scan PremaPolicy used before the per-level pass."""
    return max(
        sim.ready,
        key=lambda j: (
            policy.tokens(j, sim.now),
            j.task.priority,
            -j.task.dispatch_cycle,
            j.job_id,
        ),
    )


def _job(i, dispatch, priority, preemptions):
    job = Job(
        task=Task(
            task_id=f"t{i:04d}",
            network_name="kws",
            cost=_COST,
            dispatch_cycle=dispatch,
            priority=priority,
            qos_target_cycles=1e6,
            isolated_cycles=1e5,
        )
    )
    job.preemptions = preemptions
    return job


@st.composite
def ready_queues(draw):
    """A ready queue as the engine keeps it: sorted by ``_READY_KEY``,
    built from arrivals and re-inserted preempted jobs."""
    n = draw(st.integers(min_value=1, max_value=40))
    all_levels = draw(st.booleans())
    ready = []
    for i in range(n):
        priority = (
            i % 12 if all_levels
            else draw(st.sampled_from([0, 5, 11]))
        )
        job = _job(
            i, draw(_CYCLES), priority,
            preemptions=draw(st.sampled_from([0, 0, 1, 3])),
        )
        insort(ready, job, key=_READY_KEY)
    now = draw(st.one_of(
        st.sampled_from([j.task.dispatch_cycle for j in ready]), _CYCLES
    ))
    return SimpleNamespace(ready=ready, now=now)


class TestChallengerSelection:
    @settings(max_examples=300, deadline=None)
    @given(sim=ready_queues())
    def test_matches_full_scan(self, sim):
        policy = PremaPolicy()
        job, tokens = policy._best_waiting(sim)
        assert job is _reference_best(policy, sim)
        assert tokens == policy.tokens(job, sim.now)

    def test_equal_dispatch_larger_job_id_wins(self):
        ready = [_job(i, 5.0, 3, 0) for i in range(4)]
        sim = SimpleNamespace(ready=ready, now=5.0)
        assert PremaPolicy()._best_waiting(sim)[0].job_id == "t0003"

    def test_earlier_dispatch_wins_at_zero_tokens(self):
        # ``now`` precedes both dispatch cycles: both hold 0 tokens.
        ready = [_job(0, 1.0, 2, 0), _job(1, 2.0, 2, 0)]
        sim = SimpleNamespace(ready=ready, now=0.5)
        assert PremaPolicy()._best_waiting(sim)[0].job_id == "t0000"


class _ReferencePrema(PremaPolicy):
    """PremaPolicy's decide as it was before the early exits: the full
    scan runs first, then the block-boundary and stall checks."""

    def decide(self, sim):
        if sim.running:
            runner = sim.running[0]
            challenger = (
                _reference_best(self, sim) if sim.ready else None
            )
            if (
                challenger is not None
                and runner.at_block_boundary
                and not runner.is_stalled(sim.now)
                and self.tokens(challenger, sim.now)
                > self.preemption_threshold
                * max(self.tokens(runner, sim.now), 1e-12)
            ):
                return AllocationPlan.trusted(
                    preemptions=(runner.job_id,),
                    admissions=((challenger.job_id, sim.soc.num_tiles),),
                    stalls=(
                        (challenger.job_id, self.preemption_overhead),
                    ),
                )
            return EMPTY_PLAN
        if not sim.ready:
            return EMPTY_PLAN
        nxt = _reference_best(self, sim)
        stalls = ()
        if nxt.preemptions > 0:
            stalls = ((nxt.job_id, self.preemption_overhead),)
        return AllocationPlan.trusted(
            admissions=((nxt.job_id, sim.soc.num_tiles),), stalls=stalls
        )


def _deep_queue_tasks(soc, mem, seed, priority_weights=None):
    nets = [
        build_model(n) for n in ("kws", "squeezenet", "alexnet", "yolov2")
    ]
    gen = WorkloadGenerator(soc, nets, mem)
    return gen.generate(WorkloadConfig(
        num_tasks=60, qos_level=QosLevel.MEDIUM, load_factor=2.0,
        seed=seed, arrival="bursty", burst_count=3,
        priority_weights=priority_weights,
    ))


#: Priority weights that draw every task at level 0.
_ONE_LEVEL = (1.0,) + (0.0,) * 11


class TestDifferentialRuns:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weights", [None, (1.0,) * 12, _ONE_LEVEL])
    @pytest.mark.parametrize("threshold", [2.0, 1.0])
    def test_runs_match_reference(self, soc, mem, seed, weights,
                                  threshold):
        """Whole runs over deep bursty queues (all 12 levels, and a
        single level where every tie falls to dispatch and job id)
        match the full-scan policy result for result."""
        tasks = _deep_queue_tasks(soc, mem, seed, weights)
        fast = run_simulation(
            soc, tasks, PremaPolicy(preemption_threshold=threshold),
            mem=mem,
        )
        ref = run_simulation(
            soc, tasks, _ReferencePrema(preemption_threshold=threshold),
            mem=mem,
        )
        assert fast.results == ref.results
        assert fast.makespan == ref.makespan
        if threshold == 1.0 and weights != _ONE_LEVEL:
            # Preempted jobs re-enter the ready queue on these runs.
            assert any(r.preemptions for r in fast.results)


class _CountingPrema(PremaPolicy):
    """Checks the work bound of every decision as the engine runs."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.decisions = 0
        self.guarded = 0

    def tokens(self, job, now):
        self.calls.append(job)
        return super().tokens(job, now)

    def decide(self, sim):
        self.calls = []
        plan = super().decide(sim)
        self.decisions += 1
        ready_ids = {j.job_id for j in sim.ready}
        on_ready = [j for j in self.calls if j.job_id in ready_ids]
        levels = {j.task.priority for j in sim.ready}
        assert len(on_ready) <= len(levels)
        if sim.running:
            runner = sim.running[0]
            if not runner.at_block_boundary or runner.is_stalled(sim.now):
                self.guarded += 1
                assert self.calls == []
        return plan


class TestDecisionWork:
    def test_tokens_calls_bounded(self, soc, mem):
        policy = _CountingPrema()
        tasks = _deep_queue_tasks(soc, mem, seed=4)
        run_simulation(soc, tasks, policy, mem=mem)
        assert policy.decisions > 0
        assert policy.guarded > 0
