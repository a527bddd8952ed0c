"""Tests for the static-partition baseline."""

import pytest

from repro.baselines.static_partition import StaticPartitionPolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.engine import SOLVERS, SimulationError, Simulator, run_simulation


class TestStaticPartition:
    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            StaticPartitionPolicy(tiles_per_slot=0)

    def test_admits_fcfs(self, soc, mem, task_factory):
        tasks = [
            task_factory(task_id="late", dispatch=100.0),
            task_factory(task_id="early", dispatch=0.0),
        ]
        policy = StaticPartitionPolicy()
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem, trace=True)
        sim.run()
        starts = sim.trace.of_kind(
            __import__("repro.sim.trace", fromlist=["TraceEvent"]).TraceEvent.START
        )
        assert starts[0].job_id == "early"

    def test_four_slots_on_default_soc(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(6)]
        policy = StaticPartitionPolicy(tiles_per_slot=2)
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim._dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 4
        assert sim.free_tiles == 0

    def test_never_repartitions(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network="squeezenet")
                 for i in range(6)]
        result = run_simulation(soc, tasks, StaticPartitionPolicy(), mem=mem)
        assert all(r.tile_repartitions == 0 for r in result.results)
        assert all(r.preemptions == 0 for r in result.results)

    def test_all_tasks_finish(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}", network=n)
                 for i, n in enumerate(["kws", "alexnet", "yolo_lite",
                                        "squeezenet", "googlenet"])]
        result = run_simulation(soc, tasks, StaticPartitionPolicy(), mem=mem)
        assert len(result.results) == 5

    def test_bigger_slots_fewer_concurrent(self, soc, mem, task_factory):
        tasks = [task_factory(task_id=f"t{i}") for i in range(4)]
        policy = StaticPartitionPolicy(tiles_per_slot=4)
        policy.reset()
        sim = Simulator(soc, tasks, policy, mem=mem)
        sim._dispatch_arrivals()
        sim.controller.apply(policy.decide(sim))
        assert len(sim.running) == 2


class TestSlotLargerThanSoc:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rejected_at_first_decision_round(self, soc, task_on,
                                              solver):
        """A slot that cannot fit the SoC would leave every job waiting
        forever; the first decision round refuses it instead."""
        one = soc.with_tiles(1)
        mem = MemoryHierarchy.from_soc(one)
        tasks = [task_on(one, mem, task_id="t0", dispatch=100.0)]
        sim = Simulator(one, tasks, StaticPartitionPolicy(), mem=mem,
                        solver=solver)
        with pytest.raises(
            SimulationError,
            match=r"policy 'static' admits jobs in 2-tile slots, but "
                  r"the SoC has only 1 tile\(s\)",
        ):
            sim.run()
        assert sim.decisions == 1
