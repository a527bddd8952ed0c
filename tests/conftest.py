"""Shared fixtures for the simulator-level tests."""

import pytest

from repro.config import DEFAULT_SOC
from repro.core.latency import build_network_cost
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import build_model
from repro.sim.job import Task


@pytest.fixture(scope="session")
def soc():
    return DEFAULT_SOC


@pytest.fixture(scope="session")
def mem(soc):
    return MemoryHierarchy.from_soc(soc)


def make_task(
    soc,
    mem,
    task_id="t0",
    network="kws",
    dispatch=0.0,
    priority=5,
    qos_target=None,
    qos_slack=3.0,
):
    """Build a Task with sensible defaults for engine tests."""
    cost = build_network_cost(build_model(network), soc, mem)
    isolated = cost.total_prediction(
        soc.num_tiles, mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f
    )
    ref = cost.total_prediction(
        2, mem.dram_bandwidth, mem.l2_bandwidth, soc.overlap_f
    )
    if qos_target is None:
        qos_target = qos_slack * ref
    return Task(
        task_id=task_id,
        network_name=network,
        cost=cost,
        dispatch_cycle=dispatch,
        priority=priority,
        qos_target_cycles=qos_target,
        isolated_cycles=isolated,
    )


@pytest.fixture()
def task_on():
    """:func:`make_task` for an SoC other than the default."""
    return make_task


@pytest.fixture()
def task_factory(soc, mem):
    def factory(**kwargs):
        return make_task(soc, mem, **kwargs)

    return factory
