"""Deterministic, seeded fault injection for the sweep pipeline.

Failure paths are only trustworthy if they are *testable*, and they
are only testable if failures can be produced on demand, on the exact
cell, on the exact attempt, every time.  This module is that harness:
a :class:`FaultPlan` names which cells fail, how, and on which
attempts, and the decision is a pure function of ``(plan, cell index,
attempt)`` — no wall clock, no ambient randomness — so a test (or
``scripts/ci.sh``) that injects a worker crash reproduces byte-for-
byte on every run.

Fault kinds
-----------

``crash``
    The worker process dies via ``os._exit`` — the hard way, no
    cleanup handlers — which the parent sees as that worker's death.
    Only ever fires inside a pool worker (detected via the install
    flag the worker's warm-up sets);
    injecting it into the parent would kill the harness itself.
``hang``
    The cell sleeps ``seconds`` (default far beyond any sane cell
    time) before running, exercising the supervisor's wall-clock cell
    timeout.  Worker-only, like ``crash``.
``transient``
    Raises :class:`~repro.sim.engine.SimulationError` before the cell
    runs — the retryable failure class.  Fires anywhere (workers and
    the in-process serial path), so retry/backoff is testable without
    a pool.
``corrupt``
    Does nothing inside the worker; instead the *parent* consults
    :meth:`FaultPlan.corrupts` when persisting the cell's journal
    entry and flips a byte in the serialized payload
    (:func:`corrupt_bytes`).  The checkpoint reader's per-line
    checksum must then detect the damage and treat the cell as
    missing — corruption degrades to a re-run, never to silently
    wrong bytes.

Activation
----------

A plan is *installed* process-globally (:func:`install_plan`) — in
workers as they warm up (every worker of a pool sees the
same plan), in the parent by the supervised serial path.  The
``in_worker`` flag recorded at install time gates the process-fatal
kinds.  ``_run_cell`` consults :func:`maybe_inject` exactly once per
execution attempt.

Attempt gating makes retry semantics testable: a rule with
``attempts=1`` fires only on the first attempt (a retried cell
succeeds — the transient-fault shape), while ``attempts=ALL_ATTEMPTS``
fires forever (the poison-cell shape the quarantine path exists for).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ALL_ATTEMPTS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "clear_plan",
    "corrupt_bytes",
    "install_plan",
    "installed_plan",
    "maybe_inject",
]

#: The injectable failure modes.
FAULT_KINDS = ("crash", "hang", "transient", "corrupt")

#: Sentinel ``attempts`` value: the rule fires on every attempt (a
#: persistently failing "poison" cell that must end up quarantined).
ALL_ATTEMPTS = 0

#: Exit status an injected crash dies with — distinctive enough to
#: recognise in a worker post-mortem, meaningless otherwise.
CRASH_EXIT_STATUS = 86


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule.

    A rule selects cells either *explicitly* (``cells``) or
    *statistically* (``rate`` of all cells, chosen by a seeded hash —
    still fully deterministic: the same ``(seed, index)`` always makes
    the same draw).  ``attempts`` bounds which execution attempts
    fire: attempt numbers below it do, so ``attempts=1`` means "first
    try only" and :data:`ALL_ATTEMPTS` (0) means "every try".

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        cells: Explicit global cell indices to hit, or ``None`` to
            select by ``rate``.
        rate: Probability in ``[0, 1]`` that a given cell is hit when
            ``cells`` is ``None``.
        seed: Seed of the per-cell selection hash.
        attempts: Fire on attempt numbers ``< attempts``;
            :data:`ALL_ATTEMPTS` fires on every attempt.
        seconds: Sleep duration for ``hang`` rules.
    """

    kind: str
    cells: Optional[Tuple[int, ...]] = None
    rate: float = 0.0
    seed: int = 0
    attempts: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.cells is None and not 0.0 < self.rate <= 1.0:
            raise ValueError(
                f"fault rule needs cells=I,J,... or rate in (0, 1]; "
                f"got rate={self.rate}"
            )
        if self.cells is not None:
            if not self.cells:
                raise ValueError("cells= must name at least one index")
            if any(i < 0 for i in self.cells):
                raise ValueError("cell indices must be >= 0")
        if self.attempts < 0:
            raise ValueError(
                "attempts must be >= 1, or 0/'all' for every attempt"
            )
        if self.seconds <= 0:
            raise ValueError("hang seconds must be positive")

    def selects(self, index: int) -> bool:
        """Whether this rule targets cell ``index`` (attempt-agnostic)."""
        if self.cells is not None:
            return index in self.cells
        return _uniform(self.seed, index) < self.rate

    def fires(self, index: int, attempt: int) -> bool:
        """Whether this rule fires on ``(index, attempt)``."""
        if not self.selects(index):
            return False
        return self.attempts == ALL_ATTEMPTS or attempt < self.attempts


def _uniform(seed: int, index: int) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, cell index).

    SHA-256 based rather than ``random.Random`` so the value is
    stable across Python versions and processes — fault selection is
    part of reproducibility.
    """
    digest = hashlib.sha256(f"fault:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s.

    The first matching rule wins (evaluation order is rule order), so
    a plan can e.g. crash cell 3 while transiently failing 10% of the
    rest.  Plans are frozen dataclasses of primitives — they pickle
    across the process boundary and compare by value.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def fault_for(self, index: int, attempt: int) -> Optional[FaultRule]:
        """The first rule firing on ``(index, attempt)``, if any.

        ``corrupt`` rules never fire here — they act at persistence
        time via :meth:`corrupts`, not at execution time.
        """
        for rule in self.rules:
            if rule.kind != "corrupt" and rule.fires(index, attempt):
                return rule
        return None

    def corrupts(self, index: int) -> bool:
        """Whether a ``corrupt`` rule targets cell ``index``."""
        return any(
            rule.kind == "corrupt" and rule.selects(index)
            for rule in self.rules
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--inject-faults`` specification.

        Grammar: rules separated by ``;``, each rule
        ``KIND[:key=value]...`` with keys ``cells`` (comma-separated
        indices), ``rate``, ``seed``, ``attempts`` (integer or
        ``all``), ``seconds``.  Examples::

            crash:cells=2
            crash:cells=2:attempts=all
            transient:rate=0.25:seed=7
            hang:cells=1:seconds=30;transient:cells=0:attempts=2
            corrupt:cells=4

        Raises:
            ValueError: On malformed specs, with a message naming the
                offending fragment.
        """
        rules = []
        for fragment in spec.split(";"):
            fragment = fragment.strip()
            if not fragment:
                raise ValueError(
                    f"empty fault rule in {spec!r} (doubled or "
                    f"trailing ';'?)"
                )
            parts = fragment.split(":")
            kind = parts[0].strip()
            kwargs: dict = {"kind": kind}
            for part in parts[1:]:
                if "=" not in part:
                    raise ValueError(
                        f"malformed fault option {part!r} in "
                        f"{fragment!r} (expected key=value)"
                    )
                key, _, value = part.partition("=")
                key, value = key.strip(), value.strip()
                try:
                    if key == "cells":
                        kwargs["cells"] = tuple(
                            int(v) for v in value.split(",") if v.strip()
                        )
                    elif key == "rate":
                        kwargs["rate"] = float(value)
                    elif key == "seed":
                        kwargs["seed"] = int(value)
                    elif key == "attempts":
                        kwargs["attempts"] = (
                            ALL_ATTEMPTS if value == "all" else int(value)
                        )
                    elif key == "seconds":
                        kwargs["seconds"] = float(value)
                    else:
                        raise ValueError(
                            f"unknown fault option {key!r} in "
                            f"{fragment!r}; choose from cells, rate, "
                            f"seed, attempts, seconds"
                        )
                except ValueError as exc:
                    if "fault option" in str(exc):
                        raise
                    raise ValueError(
                        f"bad value for {key}= in {fragment!r}: {exc}"
                    ) from None
            try:
                rules.append(FaultRule(**kwargs))
            except ValueError as exc:
                raise ValueError(f"bad fault rule {fragment!r}: {exc}")
        return cls(rules=tuple(rules))


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------

_ACTIVE_PLAN: Optional[FaultPlan] = None
_IN_WORKER = False


def install_plan(plan: Optional[FaultPlan], in_worker: bool) -> None:
    """Activate ``plan`` in this process (``None`` deactivates).

    ``in_worker`` records whether this process is a disposable pool
    worker; the process-fatal kinds (``crash``, ``hang``) only fire
    when it is.
    """
    global _ACTIVE_PLAN, _IN_WORKER
    _ACTIVE_PLAN = plan
    _IN_WORKER = in_worker


def clear_plan() -> None:
    """Deactivate any installed plan in this process."""
    install_plan(None, in_worker=False)


def activate_in_worker_process(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` treating the *whole current process* as the
    disposable worker.

    ``sweep --worker URL --inject-faults`` uses this: the entire
    worker process is expendable from the coordinator's point of view
    (its leases expire and the work is re-leased), so ``crash`` kills
    the process itself — deterministically, with
    :data:`CRASH_EXIT_STATUS` — instead of being suppressed as it is
    in a supervising parent.  This must NOT be combined with routing
    the same plan through ``Supervision`` (which installs it
    parent-side with the fatal kinds suppressed, then clears it when
    the supervised run returns).
    """
    install_plan(plan, in_worker=True)


def installed_plan() -> Optional[FaultPlan]:
    """The plan active in this process, if any."""
    return _ACTIVE_PLAN


def maybe_inject(index: int, attempt: int) -> None:
    """Fire the installed plan's fault for ``(index, attempt)``, if any.

    Called once per cell execution attempt (by
    :func:`repro.experiments.parallel._run_cell`).  No-op without an
    installed plan.  ``crash`` and ``hang`` are suppressed outside
    pool workers — a plan meant for a pool must not take down a
    serial run or the supervising parent.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    rule = plan.fault_for(index, attempt)
    if rule is None:
        return
    if rule.kind == "crash":
        if _IN_WORKER:
            os._exit(CRASH_EXIT_STATUS)
        return
    if rule.kind == "hang":
        if _IN_WORKER:
            time.sleep(rule.seconds)
        return
    if rule.kind == "transient":
        from repro.sim.engine import SimulationError

        raise SimulationError(
            f"injected transient fault (cell {index}, "
            f"attempt {attempt})"
        )


def corrupt_bytes(data: bytes, seed: int = 0) -> bytes:
    """Deterministically damage ``data`` (flip one byte).

    The position and XOR mask derive from a hash of ``(seed,
    len(data))``, so the same input corrupts the same way every time —
    corruption-detection tests stay reproducible.  The flipped byte is
    never a newline (and never flips *to* one): journal corruption
    must damage a line's content, not its framing.
    """
    if not data:
        return data
    digest = hashlib.sha256(f"corrupt:{seed}:{len(data)}".encode()).digest()
    out = bytearray(data)
    pos = int.from_bytes(digest[:4], "big") % len(out)
    for offset in range(len(out)):
        i = (pos + offset) % len(out)
        flipped = out[i] ^ (digest[4] | 0x01)
        if out[i] != 0x0A and flipped != 0x0A:
            out[i] = flipped
            break
    return bytes(out)
