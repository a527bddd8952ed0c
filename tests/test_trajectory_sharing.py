"""Tests for SLA-blind trajectory sharing (runner.run_cell_detail).

A policy whose class declares ``reads_sla_targets = False`` runs one
simulation for cells that differ only in QoS level; the sibling cells
are served with their own SLA targets.  These tests pin the
declaration (the declared-blind policies really are blind), the
serving (bit-identical to simulating), its scope (one sweep, every
executor; pool workers through the parent's hand-off) and its
failure modes (a wrong declaration trips ``REPRO_CHECK``; a raising
cell stores nothing; a mismatched hand-off simulates).
"""

import dataclasses
import multiprocessing
from collections import Counter
from dataclasses import replace

import pytest

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
import repro.sanitizer as sanitizer
from repro import reporting
from repro.baselines import PremaPolicy, StaticPartitionPolicy
from repro.config import DEFAULT_SOC
from repro.experiments.golden import summary_fingerprint
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.runner import (
    _TRAJECTORY_FIELDS,
    _stream_key,
    default_policies,
    run_cell_detail,
    run_matrix,
    run_scenario,
)
from repro.scenarios import get_scenario
from repro.sim.engine import SimulationError
from repro.sim.job import Task
from repro.sim.plan import EMPTY_PLAN, AllocationPlan

SETS = ("a", "b", "c")
LEVELS = ("h", "m", "l")


def triplet(workload_set="a", num_tasks=12, seeds=(1,)):
    """The three QoS siblings of one reference workload set."""
    return [
        replace(
            get_scenario(f"ref-{workload_set}-qos-{level}"),
            num_tasks=num_tasks, seeds=tuple(seeds),
        )
        for level in LEVELS
    ]


def trajectory(result):
    """Everything a simulation determines except the SLA targets."""
    fields = {n: getattr(result, n) for n in _TRAJECTORY_FIELDS}
    fields["results"] = [
        replace(r, qos_target_cycles=0.0) for r in result.results
    ]
    return fields


@pytest.fixture()
def simulations(monkeypatch):
    """Policy names of every simulation the runner starts."""
    seen = []
    real = runner.run_simulation

    def counting(soc, tasks, policy, **kwargs):
        seen.append(policy.name)
        return real(soc, tasks, policy, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counting)
    return seen


@pytest.fixture()
def sanitized(monkeypatch):
    monkeypatch.setattr(sanitizer, "enabled", True)


class EarliestDeadlineSlots(StaticPartitionPolicy):
    """Static slots filled earliest-deadline-first: reads the SLA
    target while wrongly declaring (by inheritance) that it does not."""

    name = "edf-slots"

    def decide(self, sim):
        free = sim.free_tiles
        admissions = []
        for job in sorted(sim.ready, key=lambda j: j.task.deadline):
            if free < self.tiles_per_slot:
                break
            admissions.append((job.job_id, self.tiles_per_slot))
            free -= self.tiles_per_slot
        if not admissions:
            return EMPTY_PLAN
        return AllocationPlan(admissions=tuple(admissions))


class FailingBlindPolicy(StaticPartitionPolicy):
    """A declared-blind policy whose every decision raises."""

    name = "failing"

    def decide(self, sim):
        raise SimulationError(f"refused at cycle {sim.now:.0f}")


def test_declared_blind_policies():
    blind = {
        name for name, factory in default_policies().items()
        if not factory.reads_sla_targets
    }
    assert blind == {"prema", "static"}


@pytest.mark.parametrize("workload_set", SETS)
def test_blind_policies_ignore_qos_level(workload_set):
    """Fresh simulations (no sharing) of each QoS triplet agree on
    everything but the targets, for every declared-blind policy."""
    specs = triplet(workload_set, num_tasks=40)
    for name, factory in default_policies().items():
        if factory.reads_sla_targets:
            continue
        for seed in (1, 2, 7919, 100001):
            runs = [
                run_cell_detail(spec, name, factory, seed)[1]
                for spec in specs
            ]
            first = trajectory(runs[0])
            for run in runs[1:]:
                assert trajectory(run) == first, (name, seed)
            # The targets themselves do differ between the levels.
            targets = {r.results[0].qos_target_cycles for r in runs}
            assert len(targets) == 3


def test_served_cell_is_bit_equal_to_simulated(simulations):
    factory = default_policies()["prema"]
    shared = {}
    specs = triplet("c", num_tasks=24)
    run_cell_detail(specs[0], "prema", factory, 2, shared=shared)
    assert simulations == ["prema"]
    for spec in specs[1:]:
        summary, served = run_cell_detail(
            spec, "prema", factory, 2, shared=shared
        )
        fresh_summary, fresh = run_cell_detail(spec, "prema", factory, 2)
        assert summary == fresh_summary
        assert summary_fingerprint(summary) == summary_fingerprint(
            fresh_summary
        )
        for name in _TRAJECTORY_FIELDS:
            assert getattr(served, name) == getattr(fresh, name), name
        assert served.predict_memo_hits == served.cost_cache_hits == 0
    # Two served cells, each cross-checked by one fresh simulation.
    assert simulations == ["prema"] * 3


def test_matrix_simulates_blind_policies_once_per_stream(simulations):
    specs = triplet("b", num_tasks=12, seeds=(1, 2))
    shared_matrix = run_matrix(specs)
    counts = {p: simulations.count(p) for p in set(simulations)}
    # MoCA and Planaria read the targets: never served.
    assert counts == {"moca": 6, "planaria": 6, "prema": 2, "static": 2}
    fresh = {
        spec.label: {
            name: [
                run_cell_detail(spec, name, factory, seed)[0]
                for seed in spec.seeds
            ]
            for name, factory in default_policies().items()
        }
        for spec in specs
    }
    for label, row in shared_matrix.items():
        for name, result in row.items():
            assert list(result.per_seed) == fresh[label][name]


def test_sanitizer_catches_a_wrong_declaration(sanitized):
    shared = {}
    specs = triplet("c", num_tasks=40)
    run_cell_detail(specs[0], "edf", EarliestDeadlineSlots, 1, shared=shared)
    with pytest.raises(sanitizer.SanitizerError, match="reads_sla_targets"):
        run_cell_detail(
            specs[1], "edf", EarliestDeadlineSlots, 1, shared=shared
        )


def test_nothing_survives_the_sweep(simulations):
    specs = triplet("a", num_tasks=12)
    policies = {"prema": default_policies()["prema"]}
    run_matrix(specs, policies)
    run_matrix(specs, policies)
    assert simulations == ["prema"] * 2
    seq = ParallelRunner(workers=1)
    seq.run_supervised(specs, policies, supervision=Supervision())
    seq.run_supervised(specs, policies, supervision=Supervision())
    assert simulations == ["prema"] * 4


def test_in_process_executors_share(simulations):
    specs = triplet("a", num_tasks=12, seeds=(1, 2))
    policies = {"static": default_policies()["static"]}
    reference = run_matrix(specs, policies)
    assert len(simulations) == 2
    seq = ParallelRunner(workers=1)
    # The supervised in-process loop.
    acc = seq.run_supervised(specs, policies, supervision=Supervision())
    assert acc.matrix() == reference
    assert len(simulations) == 4
    # The streaming executor's serial loop.
    assert seq.run_matrix(specs, policies) == reference
    assert len(simulations) == 6
    # run_scenario shares within one scenario.
    twice = {"a": policies["static"], "b": policies["static"]}
    out = run_scenario(specs[0], twice)
    assert [replace(s, policy="b") for s in out["a"].per_seed] == list(
        out["b"].per_seed
    )
    assert len(simulations) == 8


def test_raising_cell_is_not_stored():
    shared = {}
    specs = triplet("a", num_tasks=8)
    errors = []
    for spec in specs[:2]:
        with pytest.raises(SimulationError) as info:
            run_cell_detail(spec, "failing", FailingBlindPolicy, 1,
                            shared=shared)
        errors.append(str(info.value))
        assert shared == {}
    assert errors[0] == errors[1]


def test_raising_cell_quarantines_its_siblings_alike():
    specs = triplet("a", num_tasks=8)
    acc = ParallelRunner(workers=1).run_supervised(
        specs, {"failing": FailingBlindPolicy},
        supervision=Supervision(max_retries=0),
    )
    messages = {f.message for f in acc.failures()}
    assert len(acc.failures()) == 3 and len(messages) == 1


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(Task)]
)
def test_stream_key_covers_every_task_field_but_the_target(field):
    task = runner.WorkloadGenerator(
        runner.DEFAULT_SOC,
        triplet("a")[0].networks(),
    ).generate(triplet("a")[0].workload_config(1))[0]
    other = {
        "task_id": "other",
        "network_name": "other",
        "cost": replace(task.cost, blocks=task.cost.blocks[:-1]),
        "dispatch_cycle": task.dispatch_cycle + 1.0,
        "priority": (task.priority + 1) % 12,
        "qos_target_cycles": task.qos_target_cycles * 2,
        "isolated_cycles": task.isolated_cycles * 2,
    }[field]
    changed = replace(task, **{field: other})
    same = _stream_key([changed]) == _stream_key([task])
    assert same == (field == "qos_target_cycles")


@pytest.fixture()
def pool_simulations(monkeypatch, tmp_path):
    """Policy names of every simulation the runner starts, in this
    process or in a forked pool worker (one line each in a file)."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("counting inside workers needs fork-started pools")
    log = tmp_path / "simulations.log"
    log.touch()
    real = runner.run_simulation

    def counting(soc, tasks, policy, **kwargs):
        with open(log, "a") as fh:
            fh.write(policy.name + "\n")
        return real(soc, tasks, policy, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counting)
    return lambda: log.read_text().split()


def exports(matrix):
    return {
        label: (
            reporting.sweep_to_json({label: row}),
            reporting.sweep_to_csv({label: row}),
        )
        for label, row in matrix.items()
    }


BLIND = {"prema": PremaPolicy, "static": StaticPartitionPolicy}


def test_pool_simulates_once_per_stream(pool_simulations):
    specs = triplet("a", num_tasks=12, seeds=(1, 2))
    pool = ParallelRunner(workers=2)
    acc = pool.run_supervised(
        specs, BLIND, supervision=Supervision(max_retries=0)
    )
    assert pool.last_mode == "parallel" and acc.complete
    # Two seeds x two policies: four streams, each simulated once.
    assert Counter(pool_simulations()) == {"prema": 2, "static": 2}
    assert exports(acc.matrix()) == exports(run_matrix(specs, BLIND))


def test_pool_store_is_empty_on_return(monkeypatch):
    stores = []

    class Recording(parallel._SiblingTrajectories):
        def __init__(self, work):
            super().__init__(work)
            self.held = 0
            stores.append(self)

        def record(self, payload, trajectory):
            super().record(payload, trajectory)
            self.held = max(self.held, len(self.trajectories))

    monkeypatch.setattr(parallel, "_SiblingTrajectories", Recording)
    specs = triplet("a", num_tasks=8, seeds=(1, 2))
    ParallelRunner(workers=2).run_supervised(
        specs, BLIND, supervision=Supervision(max_retries=0)
    )
    [store] = stores
    assert store.held > 0
    assert store.trajectories == {}


def payload(spec, name, factory, seed, index=0):
    return (index, 0, spec, name, factory, seed, DEFAULT_SOC, None)


def test_handoff_serves_only_a_matching_stream(simulations):
    specs = triplet("c", num_tasks=16)
    first, handed = parallel._run_cell_supervised(
        payload(specs[0], "prema", PremaPolicy, 1), 0, share=True
    )
    assert handed is not None and simulations == ["prema"]
    # The sibling with the same seed is served from the hand-off.
    served, none = parallel._run_cell_supervised(
        payload(specs[1], "prema", PremaPolicy, 1), 0, handed
    )
    assert none is None and simulations == ["prema"]
    # Another seed's stream does not match: simulated, not served.
    other, none = parallel._run_cell_supervised(
        payload(specs[1], "prema", PremaPolicy, 2), 0, handed
    )
    assert none is None and simulations == ["prema"] * 2
    for cell, seed in ((served, 1), (other, 2)):
        fresh_summary, fresh = run_cell_detail(
            specs[1], "prema", PremaPolicy, seed
        )
        assert summary_fingerprint(cell.summary) == summary_fingerprint(
            fresh_summary
        )
        assert cell.summary == fresh_summary
        assert (cell.events, cell.decisions) == (
            fresh.events, fresh.decisions
        )


def test_sanitized_handoff_is_resimulated(simulations, sanitized):
    specs = triplet("a", num_tasks=12)
    _, handed = parallel._run_cell_supervised(
        payload(specs[0], "static", StaticPartitionPolicy, 3), 0,
        share=True,
    )
    parallel._run_cell_supervised(
        payload(specs[2], "static", StaticPartitionPolicy, 3), 0, handed
    )
    # The served cell was re-simulated and compared.
    assert simulations == ["static"] * 2
    specs = triplet("c", num_tasks=40)
    _, wrong = parallel._run_cell_supervised(
        payload(specs[0], "edf", EarliestDeadlineSlots, 1), 0, share=True
    )
    with pytest.raises(sanitizer.SanitizerError, match="reads_sla_targets"):
        parallel._run_cell_supervised(
            payload(specs[1], "edf", EarliestDeadlineSlots, 1), 0, wrong
        )
