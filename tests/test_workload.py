"""Tests for repro.sim.workload (scenario generation)."""

import random

import pytest

from repro.config import DEFAULT_SOC
from repro.models.zoo import workload_set
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import (
    PRIORITY_GROUPS,
    PRIORITY_WEIGHTS,
    WorkloadConfig,
    WorkloadGenerator,
    priority_group,
)


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(DEFAULT_SOC, workload_set("C"))


class TestPriorityGroups:
    def test_twelve_levels(self):
        assert len(PRIORITY_WEIGHTS) == 12

    def test_groups_cover_range(self):
        covered = sorted(p for rng in PRIORITY_GROUPS.values() for p in rng)
        assert covered == list(range(12))

    @pytest.mark.parametrize("priority,group", [
        (0, "p-Low"), (2, "p-Low"),
        (3, "p-Mid"), (8, "p-Mid"),
        (9, "p-High"), (11, "p-High"),
    ])
    def test_group_mapping(self, priority, group):
        assert priority_group(priority) == group

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            priority_group(12)

    def test_weights_skew_low(self):
        # Google-trace shape: p-Low weights dominate p-High.
        low = sum(PRIORITY_WEIGHTS[:3])
        high = sum(PRIORITY_WEIGHTS[9:])
        assert low > 3 * high


class TestWorkloadConfig:
    def test_defaults_in_paper_range(self):
        cfg = WorkloadConfig()
        assert 200 <= cfg.num_tasks <= 500

    @pytest.mark.parametrize("kwargs", [
        dict(num_tasks=0),
        dict(load_factor=0.0),
        dict(reference_tiles=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(arrival_window=0.0), "arrival_window"),
        (dict(arrival_window=-5.0), "arrival_window"),
        (dict(model_mix=()), "model_mix"),
        (dict(model_mix=(("kws", 0.5), ("alexnet", 0.2))), "sum to 1.0"),
        (dict(model_mix=(("kws", 1.5), ("alexnet", -0.5))), "positive"),
        (dict(model_mix=(("kws", 0.5), ("kws", 0.5))), "repeats"),
        (dict(arrival="lognormal"), "arrival process"),
        (dict(arrival="trace"), "trace_text"),
        (dict(burst_count=0), "burst_count"),
        (dict(burst_spread=0.0), "burst_spread"),
        (dict(diurnal_waves=0.0), "diurnal_waves"),
        (dict(diurnal_depth=1.5), "diurnal_depth"),
        (dict(priority_weights=(1.0,) * 11), "12 entries"),
        (dict(priority_weights=(-1.0,) + (1.0,) * 11), "non-negative"),
        (dict(priority_weights=(0.0,) * 12), "all be zero"),
    ])
    def test_invalid_stochastic_knobs(self, kwargs, match):
        """Bad configs fail here with a clear ValueError instead of
        surfacing as confusing downstream engine errors."""
        with pytest.raises(ValueError, match=match):
            WorkloadConfig(**kwargs)

    def test_model_mix_accepts_mapping(self):
        cfg = WorkloadConfig(model_mix={"kws": 0.5, "alexnet": 0.5})
        assert cfg.model_mix == (("kws", 0.5), ("alexnet", 0.5))

    def test_explicit_arrival_window_accepted(self):
        cfg = WorkloadConfig(arrival_window=5000.0)
        assert cfg.arrival_window == 5000.0


class TestGenerator:
    def test_generates_requested_count(self, generator):
        tasks = generator.generate(WorkloadConfig(num_tasks=50, seed=3))
        assert len(tasks) == 50

    def test_reproducible(self, generator):
        cfg = WorkloadConfig(num_tasks=40, seed=7)
        a = generator.generate(cfg)
        b = generator.generate(cfg)
        assert [(t.task_id, t.dispatch_cycle, t.priority, t.network_name)
                for t in a] == [
            (t.task_id, t.dispatch_cycle, t.priority, t.network_name)
            for t in b
        ]

    def test_different_seeds_differ(self, generator):
        a = generator.generate(WorkloadConfig(num_tasks=40, seed=1))
        b = generator.generate(WorkloadConfig(num_tasks=40, seed=2))
        assert [t.network_name for t in a] != [t.network_name for t in b]

    def test_sorted_by_dispatch(self, generator):
        tasks = generator.generate(WorkloadConfig(num_tasks=60, seed=5))
        dispatches = [t.dispatch_cycle for t in tasks]
        assert dispatches == sorted(dispatches)

    def test_priorities_in_range(self, generator):
        tasks = generator.generate(WorkloadConfig(num_tasks=100, seed=5))
        assert all(0 <= t.priority <= 11 for t in tasks)

    def test_priority_distribution_skews_low(self, generator):
        rng = random.Random(0)
        samples = [generator.sample_priority(rng) for _ in range(3000)]
        low = sum(1 for s in samples if s <= 2)
        high = sum(1 for s in samples if s >= 9)
        assert low > 2 * high

    def test_networks_from_set(self, generator):
        tasks = generator.generate(WorkloadConfig(num_tasks=60, seed=5))
        allowed = {n.name for n in workload_set("C")}
        assert {t.network_name for t in tasks} <= allowed

    def test_qos_level_applied(self, generator):
        hard = generator.generate(
            WorkloadConfig(num_tasks=20, seed=5, qos_level=QosLevel.HARD)
        )
        light = generator.generate(
            WorkloadConfig(num_tasks=20, seed=5, qos_level=QosLevel.LIGHT)
        )
        for h, l in zip(hard, light):
            assert h.qos_target_cycles < l.qos_target_cycles

    def test_window_scales_inversely_with_load(self, generator):
        heavy = generator.arrival_window(
            WorkloadConfig(num_tasks=100, load_factor=1.0)
        )
        light = generator.arrival_window(
            WorkloadConfig(num_tasks=100, load_factor=0.5)
        )
        assert light == pytest.approx(2.0 * heavy)

    def test_window_scales_with_tasks(self, generator):
        small = generator.arrival_window(WorkloadConfig(num_tasks=50))
        big = generator.arrival_window(WorkloadConfig(num_tasks=200))
        assert big == pytest.approx(4.0 * small)

    def test_isolated_cycles_set(self, generator):
        tasks = generator.generate(WorkloadConfig(num_tasks=10, seed=5))
        assert all(t.isolated_cycles > 0 for t in tasks)

    def test_targets_built_once_per_network(self, generator, monkeypatch):
        calls = []
        target = QosModel.target

        def counting(self, network, *args, **kwargs):
            calls.append(network.name)
            return target(self, network, *args, **kwargs)

        monkeypatch.setattr(QosModel, "target", counting)
        cfg = WorkloadConfig(num_tasks=60, seed=5, qos_level=QosLevel.HARD)
        tasks = generator.generate(cfg)
        assert sorted(calls) == sorted({t.network_name for t in tasks})
        generator.generate(cfg)  # nothing carries over between calls
        assert len(calls) == 2 * len(set(calls))
        by_name = {n.name: n for n in generator.networks}
        for t in tasks:
            net = by_name[t.network_name]
            assert t.qos_target_cycles == target(
                generator.qos, net, QosLevel.HARD, generator.mem
            )
            assert t.isolated_cycles == generator.qos.isolated_latency(
                net, generator.mem
            )

    def test_empty_networks_raise(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(DEFAULT_SOC, [])
