"""Algorithm 2: MoCA contention detection and hardware update.

For every layer (block) an application is about to run, the runtime:

1. estimates the block's latency and DRAM traffic with Algorithm 1,
   giving its unconstrained bandwidth demand ``BW_rate``;
2. computes the application's **dynamic priority score** — the static
   user priority plus an urgency term, the ratio of the predicted
   remaining-network latency to the slack left before the SLA target;
3. reads co-runners' published bandwidth rates from the scoreboard and
   checks for **overflow**: total demand above the DRAM's maximum;
4. on contention, sheds part of its own demand, proportionally to the
   co-runners' score-weighted bandwidth share (high-score apps shed
   less), and derives the throttle configuration (``threshold_load``
   memory requests per ``window`` cycles) for the MoCA hardware;
5. publishes its new rate and score back to the scoreboard.

The update is *distributed*: each application reconfigures only its own
tile's throttle at its own layer boundaries, exactly like the paper's
runtime, so global bandwidth converges over a few layers rather than
being recomputed centrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.accelerator.dma import bytes_to_requests
from repro.config import SoCConfig
from repro.core.latency import BlockCost
from repro.core.scoreboard import Scoreboard, ScoreboardEntry
from repro.memory.arbiter import allocate_bandwidth, waterfill_grant_last
from repro.memory.hierarchy import MemoryHierarchy
from repro.tolerances import ARBITER_REL_TOL


@dataclass(frozen=True)
class RuntimeDecision:
    """Outcome of one Algorithm 2 invocation for one application.

    Attributes:
        app_id: The application updated.
        contention: Whether overflow was detected (throttling engaged).
        bw_rate: Allocated DRAM bandwidth rate in bytes/cycle.
        prediction: Updated latency prediction for the block (cycles).
        score: The dynamic priority score used.
        window: MoCA hardware window (cycles); 0 when unthrottled.
        threshold_load: Allowed memory requests per window; 0 when
            unthrottled.
    """

    app_id: str
    contention: bool
    bw_rate: float
    prediction: float
    score: float
    window: int
    threshold_load: int

    @property
    def throttle_rate_requests_per_cycle(self) -> float:
        """The request rate the HW config enforces (inf = unthrottled)."""
        if self.window == 0:
            return float("inf")
        return self.threshold_load / self.window

    def apply_to(self, engine) -> None:
        """Program a :class:`~repro.accelerator.moca_hw.MoCAHardwareEngine`
        with this decision (Algorithm 2 line 26, ``ConfigureHW``)."""
        engine.configure(window=self.window,
                         threshold_load=self.threshold_load)


class MoCARuntime:
    """The per-SoC MoCA runtime system.

    Attributes:
        soc: SoC configuration.
        mem: Shared-memory hierarchy.
        scoreboard: The bandwidth/score lookup table.
        urgency_cap: Upper bound on the ``remain_prediction / slack``
            urgency term, used when the slack is exhausted (the paper
            leaves the negative-slack case unspecified; a saturating
            cap keeps scores finite and maximally urgent).
        min_bw_rate: Floor on an allocation so a throttled app always
            retains forward progress (bytes/cycle).
        overflow_tolerance: Fraction of DRAM bandwidth the summed
            demand must exceed before throttling engages (marginal
            overflows self-resolve through interleaving).
    """

    def __init__(
        self,
        soc: SoCConfig,
        mem: Optional[MemoryHierarchy] = None,
        urgency_cap: float = 100.0,
        min_bw_rate: float = 0.5,
        overflow_tolerance: float = 0.02,
    ) -> None:
        if urgency_cap <= 0:
            raise ValueError("urgency_cap must be positive")
        if min_bw_rate <= 0:
            raise ValueError("min_bw_rate must be positive")
        if overflow_tolerance < 0:
            raise ValueError("overflow_tolerance must be non-negative")
        self.soc = soc
        self.mem = mem if mem is not None else MemoryHierarchy.from_soc(soc)
        self.scoreboard = Scoreboard()
        self.urgency_cap = urgency_cap
        self.min_bw_rate = min_bw_rate
        self.overflow_tolerance = overflow_tolerance
        # Fixed for the runtime's lifetime (the hierarchy is immutable
        # config): cached so the per-round sweep skips the property
        # chain and the overflow-cut multiply.
        self._dram_bw = self.mem.dram_bandwidth
        self._overflow_cut = overflow_tolerance * self._dram_bw

    def dynamic_score(
        self, user_priority: float, remain_prediction: float, slack: float
    ) -> float:
        """Algorithm 2 line 6: ``priority + remain_prediction / slack``.

        The urgency term saturates at :attr:`urgency_cap` when slack is
        gone or negative.
        """
        if remain_prediction < 0:
            raise ValueError("remain_prediction must be non-negative")
        if slack <= 0:
            urgency = self.urgency_cap
        else:
            urgency = min(remain_prediction / slack, self.urgency_cap)
        return user_priority + urgency

    def update_app(
        self,
        app_id: str,
        block: BlockCost,
        num_tiles: int,
        user_priority: float,
        remain_prediction: float,
        slack: float,
    ) -> RuntimeDecision:
        """Run Algorithm 2 for ``app_id``'s next block.

        Args:
            app_id: Application identifier.
            block: Cost of the block about to execute.
            num_tiles: Tiles currently assigned to the application.
            user_priority: Static user-given priority.
            remain_prediction: Predicted latency of the network's
                remaining layers (including this block), cycles.
            slack: Time left until the SLA target, cycles.

        Returns:
            The :class:`RuntimeDecision`, already published to the
            scoreboard and carrying the HW throttle configuration.
        """
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        dram_bw = self.mem.dram_bandwidth
        l2_bw = self.mem.l2_bandwidth

        # Lines 3-4: unconstrained prediction and demand for this block
        # (both served from the BlockCost memo after the first solve).
        prediction = block.predict(
            num_tiles, dram_bw, l2_bw, self.soc.overlap_f
        )
        bw_rate = block.bw_demand(
            num_tiles, dram_bw, l2_bw, self.soc.overlap_f
        )

        demand = bw_rate

        # Line 6: dynamic priority score.
        score = self.dynamic_score(user_priority, remain_prediction, slack)

        # Lines 9-12: co-runner usage from the scoreboard.
        other_demands = self.scoreboard.demands()
        other_demands.pop(app_id, None)
        other_bw = sum(other_demands.values())

        # Line 14: is the system's total memory demand above the
        # maximum DRAM bandwidth?
        overflow = demand + other_bw - dram_bw

        if overflow > self.overflow_tolerance * dram_bw and demand > 0:
            # Lines 16-18: contention detected.  Shed only the overflow,
            # splitting the bandwidth by weighted water-fill with the
            # dynamic scores as weights: co-runners whose demand fits
            # inside their score-weighted fair share keep it; the rest
            # (including this app when its score is low) split the
            # remainder proportionally to score.  This is the converged
            # behaviour of the paper's per-layer incremental shedding,
            # evaluated from the scoreboard's published demands instead
            # of iterated across layer boundaries.
            demands = dict(other_demands)
            demands[app_id] = demand
            weights = self.scoreboard.scores()
            weights[app_id] = score
            shares = allocate_bandwidth(demands, dram_bw, weights=weights)
            new_rate = min(demand, max(shares[app_id], self.min_bw_rate))
            prediction = block.from_dram_bytes / new_rate + (
                block.total_mem_bytes / l2_bw
            )
            # Throttling caps the memory stream but never the compute
            # portion already accounted for: latency is at least the
            # unthrottled prediction.
            prediction = max(
                prediction,
                block.predict(num_tiles, dram_bw, l2_bw, self.soc.overlap_f),
            )
            bw_rate = new_rate

            # Lines 20-21: hardware configuration. The budget is the
            # block's total request count split across the app's tiles,
            # to be consumed over the predicted duration.
            total_requests = bytes_to_requests(int(block.total_mem_bytes))
            threshold_load = max(1, total_requests // num_tiles)
            window = max(1, int(prediction / num_tiles))
            contention = True
        else:
            # Line 23: no contention, no throttling.
            threshold_load = 0
            window = 0
            contention = False

        # Line 25: publish to the scoreboard.
        self.scoreboard.update(
            app_id, bw_rate=bw_rate, score=score, demand=demand
        )

        return RuntimeDecision(
            app_id=app_id,
            contention=contention,
            bw_rate=bw_rate,
            prediction=prediction,
            score=score,
            window=window,
            threshold_load=threshold_load,
        )

    def regulate_batch(self, items) -> list:
        """Run Algorithm 2 for a whole decision round in one sweep.

        The hot-path counterpart of :meth:`update_app`, which stays as
        the validated reference oracle (``tests/test_vectorized.py``
        pins them equal).  The caller pre-extracts per-app state into
        structure-of-arrays tuples — the block's unconstrained
        prediction and bandwidth demand come from the simulator's
        runtime tables instead of ``block.predict`` memo probes — and
        this sweep touches the scoreboard's live entries directly
        instead of copying the demand/score dicts per app.  Apps are
        processed sequentially in item order: each sees its
        predecessors' freshly published rates, exactly like the
        equivalent sequence of ``update_app`` calls (the paper's
        distributed convergence, Section IV-A).

        Args:
            items: Per-app tuples ``(app_id, demand, user_priority,
                remain_prediction, slack)`` where ``demand`` is the
                block's unconstrained bandwidth demand at the app's
                tile count (``BlockCost.bw_demand``, as a runtime-table
                lookup).

        Returns:
            ``[(app_id, contention, bw_rate), ...]`` in item order —
            bit-identical to the ``(contention, bw_rate)`` fields of
            the :class:`RuntimeDecision`\\ s ``update_app`` returns
            (the HW window/threshold derivation, whose inputs the
            simulator never consumes, is skipped; the arbiter sees
            only the cap).
        """
        dram_bw = self._dram_bw
        entries = self.scoreboard.entries()
        urgency_cap = self.urgency_cap
        overflow_cut = self._overflow_cut
        min_bw_rate = self.min_bw_rate
        # Round-local mirror of the scoreboard in publication order:
        # parallel demand/score/entry lists plus an id -> index map,
        # snapshotted once per round and updated in place as each app
        # publishes.  Per-item co-runner sweeps then read plain list
        # slots instead of re-walking ``entries.items()`` with a string
        # compare and two attribute loads per co-runner — the same
        # values in the same publication order, so every float sum
        # below keeps the reference operation sequence.
        ids = list(entries)
        ent_arr = [entries[a] for a in ids]
        demand_arr = [e.demand for e in ent_arr]
        score_arr = [e.score for e in ent_arr]
        idx_of = {a: i for i, a in enumerate(ids)}
        n_apps = len(ids)
        out = []
        for (
            app_id, demand, user_priority, remain_prediction, slack,
        ) in items:
            # dynamic_score inlined (its remain >= 0 validation is
            # guaranteed by the predictor feeding this path).
            if slack <= 0:
                score = user_priority + urgency_cap
            else:
                score = user_priority + min(
                    remain_prediction / slack, urgency_cap
                )
            # Co-runner demand sum in publication order, exactly as
            # sum(other_demands.values()) does.
            i_self = idx_of.get(app_id, -1)
            other_bw = 0.0
            for i in range(n_apps):
                if i != i_self:
                    other_bw += demand_arr[i]
            overflow = demand + other_bw - dram_bw
            if overflow > overflow_cut and demand > 0:
                # Contention.  ``other_bw + demand`` is the same float
                # sequence the reference wants sum produced (same
                # addends, same order), so the early-exit threshold is
                # bit-identical.  Only this app's grant is consumed,
                # and it sits at a fixed index: last — the water-fill
                # input lists (co-runners in scoreboard order, this
                # app last, uncapped wants = demands, scores as
                # weights with the denormal filter) are built only
                # when the fill actually runs.
                if other_bw + demand <= dram_bw * (1 + ARBITER_REL_TOL):
                    share = demand
                else:
                    wants = []
                    weights = []
                    for i in range(n_apps):
                        if i != i_self:
                            wants.append(demand_arr[i])
                            s = score_arr[i]
                            weights.append(s if s > 1e-9 else 0.0)
                    wants.append(demand)
                    weights.append(score if score > 1e-9 else 0.0)
                    share = waterfill_grant_last(wants, weights, dram_bw)
                bw_rate = min(demand, max(share, min_bw_rate))
                contention = True
            else:
                bw_rate = demand
                contention = False
            # Publish (Alg. 2 line 25) straight into the live entry —
            # rates/demands are non-negative here by construction, so
            # Scoreboard.update's validation adds nothing.  The round
            # mirror is updated in the same step so successor items
            # see this publication.
            if i_self < 0:
                entry = ScoreboardEntry(
                    bw_rate=bw_rate, demand=demand, score=score
                )
                entries[app_id] = entry
                idx_of[app_id] = n_apps
                ids.append(app_id)
                ent_arr.append(entry)
                demand_arr.append(demand)
                score_arr.append(score)
                n_apps += 1
            else:
                entry = ent_arr[i_self]
                entry.bw_rate = bw_rate
                entry.demand = demand
                entry.score = score
                demand_arr[i_self] = demand
                score_arr[i_self] = score
            out.append((app_id, contention, bw_rate))
        return out

    def retire_app(self, app_id: str) -> None:
        """Remove a finished application from the scoreboard."""
        self.scoreboard.remove(app_id)

    def reset(self) -> None:
        """Clear all runtime state (new simulation)."""
        self.scoreboard.clear()
