"""The policy interface between the simulator and schedulers.

A *policy* bundles everything above the hardware: the admission
scheduler, the resource (tile / bandwidth) manager, and the costs its
reconfigurations incur.  The seam is **declarative**: at every
decision point (see :class:`repro.sim.plan.DecisionCadence`) the
engine calls :meth:`Policy.decide`, which inspects engine state
*without mutating it* and returns an
:class:`~repro.sim.plan.AllocationPlan` — admissions, tile targets,
bandwidth caps, preemptions.  The engine-side
:class:`~repro.sim.plan.AllocationController` diffs the plan against
live state, applies it atomically, and charges the reconfiguration
costs centrally.  ``decide`` is the only seam: a policy never calls
``sim.start_job`` / ``sim.set_tiles`` / ... itself.  Tests drive one
decision point by hand with
``sim.controller.apply(policy.decide(sim))``.

Reconfiguration costs (Section V-A):

- changing a running job's **tile allocation** costs a thread-migration
  stall of ~1 M cycles (thread spawning + synchronization);
- changing a job's **memory throttle** costs 5-10 cycles (we charge 8),
  which is why MoCA "triggers memory repartitioning more frequently
  than compute repartitioning".
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.sim.plan import AllocationPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.job import Job

#: Average thread-migration penalty for compute repartitioning, cycles.
COMPUTE_RECONFIG_CYCLES = 1_000_000

#: DMA issue-rate reconfiguration penalty for memory repartitioning.
MEMORY_RECONFIG_CYCLES = 8


def slot_exceeds_soc(policy: "Policy", slot: int, num_tiles: int):
    """The :class:`~repro.sim.engine.SimulationError` a slot-based
    policy raises when its ``slot``-tile admission slot is larger than
    the SoC's ``num_tiles``: no job could ever be admitted."""
    # Imported here: the engine module imports this one.
    from repro.sim.engine import SimulationError

    return SimulationError(
        f"policy {policy.name!r} admits jobs in {slot}-tile slots, but "
        f"the SoC has only {num_tiles} tile(s)"
    )


class Policy(abc.ABC):
    """Base class for multi-tenancy policies.

    Subclasses implement :meth:`decide`; the simulator refuses a
    policy that does not.

    Attributes:
        name: Human-readable policy name (used in reports).
        compute_reconfig_cycles: Stall charged when a running job's
            tile count changes.
        memory_reconfig_cycles: Stall charged when a job's bandwidth
            cap changes.
        reads_sla_targets: Whether the policy's decisions may depend
            on a task's ``qos_target_cycles`` (or its ``deadline``).
            A fixed fact about the class.  Policies that declare
            False run one trajectory for cells that differ only in
            QoS level (see :func:`repro.experiments.runner.
            run_cell_detail`); ``REPRO_CHECK=1`` verifies the claim.
    """

    name: str = "base"
    compute_reconfig_cycles: int = COMPUTE_RECONFIG_CYCLES
    memory_reconfig_cycles: int = MEMORY_RECONFIG_CYCLES
    reads_sla_targets: bool = True

    #: Horizon-kernel protocol (optional, engine-private).  A policy
    #: may implement ``kernel_noop_guard(sim) -> bool`` — return True
    #: only when this decision round *provably* returns
    #: :data:`~repro.sim.plan.EMPTY_PLAN` with zero internal state
    #: change, letting the kernel skip the call entirely — and
    #: ``kernel_decide_apply(sim) -> None`` — a fused decision round
    #: that makes exactly the same decisions as :meth:`decide` but
    #: applies the steady-state caps-only overlay in place through the
    #: controller's trusted journal.  Both default to None: the kernel
    #: then drives the policy through the ordinary decide()/apply
    #: seam.  Under ``REPRO_CHECK=1`` the engine ignores
    #: ``kernel_decide_apply`` so every plan passes the sanitizer's
    #: trusted-plan re-validation.
    kernel_noop_guard = None
    kernel_decide_apply = None

    def decide(self, sim: "Simulator") -> AllocationPlan:
        """Compute this decision point's allocation plan.

        Must be a pure *read* of the engine (policy-internal state may
        advance — scoreboards, caches — but no engine mutation); the
        engine applies the returned plan through its
        :class:`~repro.sim.plan.AllocationController`.  Returning
        :data:`~repro.sim.plan.EMPTY_PLAN` (or ``None``) means "no
        changes".
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement decide()"
        )

    def on_job_finished(self, sim: "Simulator", job: "Job") -> None:
        """Hook invoked right after a job completes."""

    def reset(self) -> None:
        """Clear internal state before a fresh simulation."""
