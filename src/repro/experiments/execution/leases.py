"""Work ledger: dynamic, cost-aware cell leasing over the manifest.

The static :class:`~repro.experiments.sharding.ShardPlan` slices a
manifest up-front: every host must be known before the sweep starts,
and a dead host strands its slice until a manual ``--resume``.  The
:class:`WorkLedger` replaces that with *leases*: a worker asks for
work, receives a cost-balanced batch of currently unowned cells, and
must either submit results or keep heartbeating — a lease whose
heartbeats stop is expired and its cells return to the pool for any
other worker to steal.  Work-stealing over the cell manifest, with
the manifest digest still the compatibility key.

Per-cell states:

- ``unleased`` — nobody owns the cell; it is available to lease.
- ``leased`` — a live lease owns it.  Exactly one lease can ever own
  a cell at a time (exclusivity is structural: leases are only built
  from unleased cells).
- ``completed`` — a validated result was folded in.  Final: settling
  a completed cell again is refused (the overlap refusal, the same
  guarantee :func:`~repro.experiments.sharding.merge_partials`
  enforces across shard partials).
- ``quarantined`` — a worker exhausted its retry budget on the cell
  and submitted a structured failure.  Settled for *this* serving
  session (the worker already retried; re-leasing it would loop), but
  missing from the results — ``sweep --resume`` re-runs it later.

Batch sizing reuses the LPT cost model of
:meth:`ShardPlan.from_manifest`: cells are granted costliest-first
and a batch grows until it reaches the target cost (total cost spread
over ``4 x workers_hint`` batches), so early batches are big (low
round-trip overhead) and the tail stays fine-grained (stragglers
rebalance).

Every mutation appends one JSON-ready op to :attr:`WorkLedger.log`;
:meth:`WorkLedger.replay` rebuilds the exact ledger state from a log,
which makes lease assignment *deterministic given a lease log* — the
property the coordinator's journal audit trail and the
lease-expiry-determinism tests lean on.  Time never enters the log:
expiry is recorded as an explicit op when it is decided, so replay
needs no clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.sanitizer as sanitizer
from repro.experiments.sharding import (
    ShardPlan,
    _cell_costs,
    manifest_digest,
)

__all__ = [
    "COMPLETED",
    "LEASED",
    "QUARANTINED",
    "UNLEASED",
    "Lease",
    "WorkLedger",
]

#: Per-cell lease states.
UNLEASED = "unleased"
LEASED = "leased"
COMPLETED = "completed"
QUARANTINED = "quarantined"

#: Batches per worker the default lease target aims for: big early
#: batches, fine-grained tail.
_BATCHES_PER_WORKER = 4

#: Sentinel: "use the ledger's configured TTL" (``None`` must remain
#: expressible as "immortal lease").
_LEDGER_TTL = object()


@dataclass(frozen=True)
class Lease:
    """One grant of cells to one worker.

    Attributes:
        lease_id: Ledger-unique id (monotonic, starts at 1).
        worker_id: The requesting worker's self-chosen identity —
            informational (expiry is driven by heartbeats, not
            identity).
        indices: Ascending global cell indices granted.
        cost: Summed cell cost of the grant (the LPT balance weight).
        expires_at: Ledger-clock deadline; ``math.inf`` for pre-leased
            static shards (a shard partial arrives whenever its host
            finishes — static sharding has no heartbeat channel).
    """

    lease_id: int
    worker_id: str
    indices: Tuple[int, ...]
    cost: int
    expires_at: float


# repro-lint: single-writer owner=Coordinator._lock
class WorkLedger:
    """Per-cell lease state over one cell manifest.

    Single-threaded by design — the coordinator serialises access
    under its own lock; the ledger itself stays a deterministic value
    machine so :meth:`replay` can reproduce any state from the op log.

    Args:
        manifest: The sweep's cell manifest (defines the cell count,
            the per-cell costs, and the digest identity).
        lease_ttl: Seconds a lease lives between heartbeats; ``None``
            disables expiry (every lease is immortal — the static
            pre-leased mode).
        workers_hint: Expected worker count — sizes the default lease
            batch (total cost over ``4 x workers_hint`` batches).
        clock: Monotonic time source (injectable for deterministic
            tests).
    """

    def __init__(
        self,
        manifest: dict,
        lease_ttl: Optional[float] = 30.0,
        workers_hint: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive (or None)")
        if workers_hint < 1:
            raise ValueError("workers_hint must be >= 1")
        self.manifest = manifest
        self.digest = manifest_digest(manifest)
        self.lease_ttl = lease_ttl
        self.workers_hint = workers_hint
        self._clock = clock
        self._costs: List[int] = _cell_costs(manifest)
        self._state: List[str] = [UNLEASED] * len(self._costs)
        #: cell index -> owning live lease id.
        self._owner: Dict[int, int] = {}
        #: live leases: id -> Lease (indices still outstanding).
        self._leases: Dict[int, Lease] = {}
        #: live leases: id -> current heartbeat deadline.
        self._expiry: Dict[int, float] = {}
        self._next_lease_id = 1
        #: Append-only op log; see :meth:`replay`.
        self.log: List[dict] = []

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._costs)

    def state(self, index: int) -> str:
        """The lease state of one cell."""
        return self._state[index]

    @property
    def drained(self) -> bool:
        """Whether every cell is settled (completed or quarantined).

        The coordinator's termination condition: nothing left to
        lease, nothing in flight.
        """
        return all(
            s in (COMPLETED, QUARANTINED) for s in self._state
        )

    def lease(self, lease_id: int) -> Optional[Lease]:
        """The live lease with this id, or ``None``."""
        return self._leases.get(lease_id)

    def live_leases(self) -> List[Lease]:
        """All live leases, by ascending id."""
        return [self._leases[i] for i in sorted(self._leases)]

    def counts(self) -> Dict[str, int]:
        """Cell counts by state (plus the live lease count)."""
        out = {
            UNLEASED: 0, LEASED: 0, COMPLETED: 0, QUARANTINED: 0,
        }
        for s in self._state:
            out[s] += 1
        out["leases"] = len(self._leases)
        return out

    def default_batch_cost(self) -> int:
        """The default lease-size target (summed cell cost).

        Total manifest cost spread over ``4 x workers_hint`` batches.
        At least the costliest single cell, so the costliest cell
        always fits one lease.
        """
        total = sum(self._costs)
        target = math.ceil(
            total / (_BATCHES_PER_WORKER * self.workers_hint)
        )
        return max(target, max(self._costs, default=1), 1)

    # -- mutations (all logged) ----------------------------------------

    def request_lease(
        self,
        worker_id: str,
        max_cost: Optional[int] = None,
        ttl: object = _LEDGER_TTL,
    ) -> Optional[Lease]:
        """Grant a cost-aware batch of unleased cells, or ``None``.

        Longest-processing-time-first over the unleased cells (ties by
        ascending index, exactly :class:`ShardPlan`'s order): the
        batch starts with the costliest available cell and grows with
        the next-costliest until it reaches the cost target
        (``max_cost`` or :meth:`default_batch_cost`).  Always grants
        at least one cell when any is unleased.  ``None`` means
        nothing is currently unleased — the worker should poll
        :attr:`drained` (leased work may yet expire and come back).
        """
        if max_cost is not None and max_cost < 1:
            raise ValueError("max_cost must be >= 1")
        available = [
            i for i, s in enumerate(self._state) if s == UNLEASED
        ]
        if not available:
            return None
        target = (
            max_cost if max_cost is not None
            else self.default_batch_cost()
        )
        available.sort(key=lambda i: (-self._costs[i], i))
        batch: List[int] = []
        cost = 0
        for index in available:
            if batch and cost + self._costs[index] > target:
                continue
            batch.append(index)
            cost += self._costs[index]
            if cost >= target:
                break
        effective_ttl = self.lease_ttl if ttl is _LEDGER_TTL else ttl
        return self._issue(
            worker_id, tuple(sorted(batch)), cost, effective_ttl
        )

    def pre_lease_shard(
        self,
        num_shards: int,
        shard_index: int,
        worker_id: Optional[str] = None,
    ) -> Lease:
        """Issue the deterministic static shard slice as one lease.

        Static sharding as the degenerate case of the ledger: the
        :class:`ShardPlan` slice for ``(manifest, num_shards,
        shard_index)`` is granted in full, with no expiry (shard hosts
        have no heartbeat channel — the partial file arrives whenever
        it arrives).  Every host pre-leasing its own shard from its
        own ledger computes disjoint slices with no coordination,
        exactly as before the refactor.
        """
        plan = ShardPlan.from_manifest(self.manifest, num_shards)
        indices = plan.shard(shard_index)
        taken = [i for i in indices if self._state[i] != UNLEASED]
        if taken:
            raise ValueError(
                f"shard {shard_index + 1}/{num_shards} overlaps "
                f"already-owned cells (first: {taken[0]})"
            )
        if worker_id is None:
            worker_id = f"shard-{shard_index + 1}-of-{num_shards}"
        return self._issue(
            worker_id, indices, plan.costs[shard_index], ttl=None
        )

    def _issue(
        self,
        worker_id: str,
        indices: Tuple[int, ...],
        cost: int,
        ttl: Optional[float],
    ) -> Lease:
        expires = math.inf if ttl is None else self._clock() + ttl
        lease = Lease(
            lease_id=self._next_lease_id,
            worker_id=worker_id,
            indices=indices,
            cost=cost,
            expires_at=expires,
        )
        self._next_lease_id += 1
        self._leases[lease.lease_id] = lease
        self._expiry[lease.lease_id] = expires
        for index in indices:
            self._state[index] = LEASED
            self._owner[index] = lease.lease_id
        self.log.append({
            "op": "lease",
            "lease_id": lease.lease_id,
            "worker": worker_id,
            "indices": list(indices),
            "cost": cost,
        })
        if sanitizer.enabled:
            self._check_invariants("issue")
        return lease

    def heartbeat(self, lease_id: int) -> bool:
        """Renew a lease's expiry deadline.

        ``False`` when the lease is no longer live (expired and
        re-leased, or fully settled) — the worker's signal that its
        work is orphaned and any eventual submit will be refused.
        Heartbeats are not logged: they only move the deadline, and
        the *decision* they influence (expiry) is logged explicitly.
        """
        if lease_id not in self._leases:
            return False
        if self.lease_ttl is not None and math.isfinite(
            self._expiry[lease_id]
        ):
            self._expiry[lease_id] = self._clock() + self.lease_ttl
        if sanitizer.enabled:
            self._check_invariants("heartbeat")
        return True

    def expire(self, now: Optional[float] = None) -> List[Lease]:
        """Expire leases past their heartbeat deadline.

        Each expired lease's *unsettled* cells return to ``unleased``
        (cells it already settled stay settled — a lease that
        submitted some cells then died only re-runs the remainder).
        Returns the expired leases, by ascending id.
        """
        if now is None:
            now = self._clock()
        expired = [
            self._leases[i]
            for i in sorted(self._leases)
            if self._expiry[i] < now
        ]
        for lease in expired:
            for index in lease.indices:
                if self._state[index] == LEASED and (
                    self._owner.get(index) == lease.lease_id
                ):
                    self._state[index] = UNLEASED
                    del self._owner[index]
            del self._leases[lease.lease_id]
            del self._expiry[lease.lease_id]
            self.log.append({
                "op": "expire", "lease_id": lease.lease_id,
            })
        if sanitizer.enabled:
            self._check_invariants("expire")
        return expired

    def release(self, lease_id: int) -> Optional[Lease]:
        """Explicitly surrender a live lease (a worker shutting down
        cleanly mid-lease); its unsettled cells return to the pool
        immediately instead of waiting out the TTL."""
        if lease_id not in self._leases:
            return None
        self._expiry[lease_id] = -math.inf
        expired = self.expire(now=0.0)
        return expired[0] if expired else None

    def complete(self, index: int) -> None:
        """Settle one cell as completed.

        Refused for an already-completed cell — the ledger-level form
        of the merge path's overlap refusal (two results for one cell
        means double-aggregation).  A quarantined cell may complete
        (a later worker healed it); an unleased cell may complete
        (resume pre-folds journaled results before any lease exists).
        """
        self._settle(index, COMPLETED)

    def quarantine(self, index: int) -> None:
        """Settle one cell as quarantined (a worker exhausted its
        retry budget).  Not re-leased in this session — ``sweep
        --resume`` is the healing path."""
        if self._state[index] == COMPLETED:
            # A completed cell cannot regress; mirrors
            # SweepResults.add_failure (success supersedes).
            return
        self._settle(index, QUARANTINED)

    def _settle(self, index: int, state: str) -> None:
        if not 0 <= index < len(self._costs):
            raise ValueError(
                f"cell index {index} outside manifest of "
                f"{len(self._costs)} cells"
            )
        if self._state[index] == COMPLETED:
            raise ValueError(
                f"cell {index} is already completed — duplicate or "
                f"overlapping submission"
            )
        lease_id = self._owner.pop(index, None)
        self._state[index] = state
        if lease_id is not None:
            lease = self._leases[lease_id]
            outstanding = [
                i for i in lease.indices
                if self._owner.get(i) == lease_id
            ]
            if not outstanding:
                # Fully settled lease: retire it.
                del self._leases[lease_id]
                del self._expiry[lease_id]
        self.log.append({
            "op": "complete" if state == COMPLETED else "quarantine",
            "index": index,
        })
        if sanitizer.enabled:
            self._check_invariants("settle")

    # -- sanitized mode ------------------------------------------------

    def _check_invariants(self, after: str) -> None:
        """Re-verify the full state-machine invariant set (sanitized
        mode only — called after every mutating op).

        The static race detector proves the ledger is only touched
        under the coordinator's lock; this proves the value machine
        itself stays coherent across any lease / heartbeat / expire /
        settle interleaving.  A trip is a ledger bug, never load.
        """
        req = sanitizer.require
        valid = {UNLEASED, LEASED, COMPLETED, QUARANTINED}
        bad = sorted({s for s in self._state if s not in valid})
        req(
            not bad,
            f"ledger corrupt after {after}: invalid cell state(s) "
            f"{bad}",
        )
        req(
            set(self._leases) == set(self._expiry),
            f"ledger corrupt after {after}: lease ids "
            f"{sorted(self._leases)} != expiry ids "
            f"{sorted(self._expiry)}",
        )
        req(
            all(i < self._next_lease_id for i in self._leases),
            f"ledger corrupt after {after}: live lease id >= next id "
            f"{self._next_lease_id}",
        )
        leased = {
            i for i, s in enumerate(self._state) if s == LEASED
        }
        req(
            set(self._owner) == leased,
            f"ledger corrupt after {after}: owner map covers "
            f"{sorted(self._owner)} but LEASED cells are "
            f"{sorted(leased)}",
        )
        owned_by: Dict[int, int] = {}
        for index, lease_id in self._owner.items():
            lease = self._leases.get(lease_id)
            req(
                lease is not None,
                f"ledger corrupt after {after}: cell {index} owned "
                f"by dead lease {lease_id}",
            )
            req(
                index in lease.indices,
                f"ledger corrupt after {after}: cell {index} owned "
                f"by lease {lease_id} which never covered it",
            )
            owned_by[lease_id] = owned_by.get(lease_id, 0) + 1
        req(
            all(lid in owned_by for lid in self._leases),
            f"ledger corrupt after {after}: fully-settled lease(s) "
            f"{sorted(set(self._leases) - set(owned_by))} not retired",
        )

    # -- determinism ---------------------------------------------------

    @classmethod
    def replay(
        cls,
        manifest: dict,
        log: List[dict],
        lease_ttl: Optional[float] = None,
        workers_hint: int = 2,
    ) -> "WorkLedger":
        """Rebuild the exact ledger state a log describes.

        Lease ops re-issue their *logged* indices (no re-derivation:
        the log is the authority), so any two replays of the same log
        — and the live ledger that produced it — agree on every cell's
        state and every live lease.  This is the "deterministic given
        a lease log" contract: the coordinator journal's audit trail
        fully determines the assignment history.
        """
        ledger = cls(
            manifest, lease_ttl=lease_ttl, workers_hint=workers_hint
        )
        for op in log:
            if op["op"] == "lease":
                lease = ledger._issue(
                    op["worker"], tuple(op["indices"]), op["cost"],
                    ttl=None,
                )
                if lease.lease_id != op["lease_id"]:
                    raise ValueError(
                        f"lease log replay diverged: issued id "
                        f"{lease.lease_id}, log says {op['lease_id']}"
                    )
            elif op["op"] == "expire":
                lease = ledger._leases.get(op["lease_id"])
                if lease is not None:
                    ledger._expiry[op["lease_id"]] = -math.inf
                    ledger.expire(now=0.0)
            elif op["op"] == "complete":
                ledger.complete(op["index"])
            elif op["op"] == "quarantine":
                ledger.quarantine(op["index"])
            else:
                raise ValueError(
                    f"unknown ledger op {op.get('op')!r} in lease log"
                )
        return ledger
