"""Runtime invariant sanitizer (``REPRO_CHECK=1``).

The static pass (:mod:`repro.devtools.lint`) proves what it can from
source: no unseeded RNGs, no unordered iteration feeding ordered
output, lock coverage over the thread-shared execution layer, frozen
value objects only mutated inside their own modules.  What it cannot
prove — that the horizon kernel's fused solve really computes the
reference solve's floats, that a *trusted* plan really satisfies the validation it was
allowed to skip, that the work ledger's state machine stays coherent
across a lease/expire/steal interleaving — this module cross-checks at
runtime, behind one switch.

Set ``REPRO_CHECK=1`` in the environment (or call :func:`enable`) and
the guarded hot paths turn on their asserts:

- :meth:`repro.sim.engine.Simulator._advance_horizon` spot-checks
  the kernel's fused block-time solve against
  :func:`repro.sim.reference.solve_block_times` (first epoch, then
  every 64th — the bit-identical contract, sampled).
- :class:`repro.sim.plan.AllocationController` re-validates every
  trusted :class:`~repro.sim.plan.AllocationPlan` through the public
  constructor and the validated resolve before applying it — the
  checks :meth:`AllocationPlan.trusted` exists to skip.
- :class:`repro.experiments.execution.leases.WorkLedger` re-verifies
  its full state-machine invariant set after every mutating op.
- :func:`repro.experiments.runner.run_cell_detail` re-simulates every
  cell it serves from a QoS sibling's shared trajectory and compares
  — the check behind a policy's ``reads_sla_targets = False``.

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass: a sanitizer trip is always a bug in this codebase, never a
user error).  With the switch off the hooks cost one attribute read
and a branch — the sanitized CI tier runs the same simulations as the
unchecked tier and must produce byte-identical artifacts, which is
itself asserted in ``scripts/ci.sh``.
"""

from __future__ import annotations

import os

__all__ = [
    "SanitizerError",
    "disable",
    "enable",
    "enabled",
    "require",
]


class SanitizerError(AssertionError):
    """A runtime cross-check failed: two code paths that must agree
    disagreed, or an internal state machine broke its invariants.
    Always a bug in this codebase (file an issue with the traceback),
    never a user input problem."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


#: Whether sanitized mode is on.  Read via ``sanitizer.enabled`` (a
#: live module attribute, so :func:`enable` in one test is seen by
#: already-imported hot paths).  Seeded from ``REPRO_CHECK`` at import.
enabled: bool = _env_enabled()


def enable() -> None:
    """Turn sanitized mode on for this process (tests use this
    instead of re-execing with ``REPRO_CHECK=1``)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn sanitized mode off again."""
    global enabled
    enabled = False


def require(condition: bool, message: str) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    if not condition:
        raise SanitizerError(message)


def check_kernel_agreement(
    kernel: dict, oracle: dict, now: float
) -> None:
    """Assert the horizon kernel's fused per-job block times match the
    reference solve exactly.

    ``kernel`` is the kernel's live per-job time map restricted to the
    jobs it solved this epoch; ``oracle`` is
    :func:`repro.sim.reference.solve_block_times` run on the same
    state.  The kernel replicates the oracle's float sequence
    operation for operation, so the comparison is exact equality, not
    tolerance.
    """
    if kernel == oracle:
        return
    extra = sorted(set(kernel) - set(oracle))
    missing = sorted(set(oracle) - set(kernel))
    if extra or missing:
        raise SanitizerError(
            f"horizon-kernel divergence at t={now}: kernel solve has "
            f"extra jobs {extra}, missing jobs {missing}"
        )
    for jid in sorted(oracle):
        if kernel[jid] != oracle[jid]:
            raise SanitizerError(
                f"horizon-kernel divergence at t={now}: job {jid!r} "
                f"kernel={kernel[jid]!r} oracle={oracle[jid]!r}"
            )
    raise SanitizerError(f"horizon-kernel divergence at t={now}")
