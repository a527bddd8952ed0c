"""Parallel experiment executor: fan the evaluation matrix over processes.

The paper's evaluation is a matrix of independent cells — one
``(scenario, policy, seed)`` triple per simulation — and every cell is
a pure function of its inputs (the workload generator reseeds from the
cell's seed, the engine is exactly deterministic).  That makes the
harness embarrassingly parallel, and this module fans it over a small
pool of worker processes, each fed through its own duplex pipe.

Sweep executor
--------------

:meth:`ParallelRunner.run_supervised` is the one executor.  It
flattens ``specs x policies x seeds`` into indexed cell payloads,
sends them to the workers one cell at a time, and folds each
:class:`~repro.experiments.results.CellResult` into a
:class:`~repro.experiments.results.SweepResults` **the moment it
completes** — no barrier across the sweep.  ``on_cell`` sees each
cell as it is folded in (the journal and export seam).  Completion
order is nondeterministic in pool mode; every cell carries its global
submission index, so the accumulator folds the stream back into the
deterministic ``{label: {policy: ScenarioResult}}`` matrix.
:meth:`ParallelRunner.run_matrix` is ``run_supervised(...).matrix()``
under the default :class:`Supervision`, so it stays drop-in
interchangeable and numerically identical with the serial
:func:`repro.experiments.runner.run_matrix`.  A cell that keeps
failing is quarantined; ``matrix()`` then raises, naming it.

Worker pool
-----------

Each worker is a process with one duplex pipe.  It warms up, sends a
ready message, then runs pickled ``(fn, args)`` tasks in order and
answers each with ``(ok, result or exception)``.  The parent
multiplexes every pipe and process sentinel with
:func:`multiprocessing.connection.wait` — no helper threads, no
futures — so it knows which cell each worker is running: a crash or
a timeout is charged to that cell, and only that worker is replaced.
``connection.wait`` polls any number of objects on POSIX; on Windows
it takes at most 64 handles, two per worker, which caps a pool there
at 32 workers.

Warm workers
------------

Every worker process first pre-warms the process-global network-cost
cache and the per-block predict memos for the models of the sweep
(:func:`repro.core.latency.warm_network_cost_cache`), then sends its
parent a ready message.  Fork-start hosts inherit the parent's warm
caches anyway; on spawn-start hosts the warm-up is what keeps each
cell from paying the cold start.  Each :class:`CellResult` carries
cache hit/miss deltas, so warmth is observable: a warm worker's cells
report zero ``cost_cache_misses``.

For timing-sensitive callers, :meth:`ParallelRunner.start_pool` makes
the pool persistent and waits for every worker's ready message, so
each one has started and warmed *now*; subsequent :meth:`run_matrix`
/ :meth:`run_supervised` calls reuse it.  :meth:`close_pool` (or
using the runner as a context manager) releases it.

Pickling constraints and serial fallback
----------------------------------------

Everything crossing the process boundary must pickle: the
:class:`ScenarioSpec`, the :class:`SoCConfig` and each policy *factory*
(the class itself, not an instance).  The four built-in policies are
top-level classes and pickle fine; a lambda or closure factory does
not.  The executor runs the cells serially in-process (same cell
code, same results, same retry ledger) instead of failing when:

- ``workers=1`` or the sweep has a single cell;
- a policy factory does not pickle;
- no process pool can start (restricted sandboxes);
- a crashed or hung worker cannot be replaced mid-sweep (cells
  already folded in are kept; only the remainder runs serially).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from collections import deque
from dataclasses import dataclass, fields, replace
from multiprocessing import connection
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import DEFAULT_SOC, SoCConfig
from repro.experiments import faults
from repro.experiments.faults import FaultPlan
from repro.experiments.results import (
    DECISION_COUNTER_FIELDS,
    CellFailure,
    CellResult,
    SweepResults,
)
from repro.experiments.runner import (
    PolicyFactory,
    ScenarioResult,
    ScenarioSpec,
    TrajectoryMemo,
    check_unique_labels,
    default_policies,
    run_cell_detail,
)
from repro.scenarios import ScenarioLike, resolve_scenarios
from repro.sim.engine import SOLVERS, SimResult

#: One unit of parallel work: (global cell index, spec index, spec,
#: policy name, policy factory, seed, SoC, solver).  The global index
#: is the deterministic aggregation key; the spec index disambiguates
#: duplicate labels.  The solver override rides at the *end* so the
#: positional reads of the leading fields (quarantine, sharding)
#: stay stable; ``None`` means the engine default and is never
#: serialized into manifests or exports — the kernel and the
#: reference loop are bit-identical, so the choice is operational,
#: not part of a cell's identity.
_CellPayload = Tuple[
    int, int, ScenarioSpec, str, PolicyFactory, int, SoCConfig,
    Optional[str],
]

#: An SLA-blind trajectory handed between processes: its trajectory
#: key and the :class:`SimResult` it produced (see
#: :data:`~repro.experiments.runner.TrajectoryMemo`).
_Trajectory = Tuple[tuple, SimResult]

#: The :class:`ScenarioSpec` fields that set only the SLA targets (or
#: the label), at their defaults: QoS siblings agree on the rest.
_TARGET_ONLY_DEFAULTS = {
    f.name: f.default
    for f in fields(ScenarioSpec)
    if f.name in ("qos_level", "slack_factor", "name")
}


@dataclass(frozen=True)
class Supervision:
    """Per-cell failure-handling policy for :meth:`ParallelRunner.
    run_supervised`.

    Attributes:
        max_retries: Re-executions granted to a failing cell beyond
            its first attempt; a cell failing ``max_retries + 1``
            times is quarantined as a :class:`~repro.experiments.
            results.CellFailure` instead of aborting the sweep.
        cell_timeout: Wall-clock seconds a cell may run inside its
            worker before it is declared hung; ``None`` disables the
            timeout.  Timeouts are only enforceable in pool mode (a
            serial in-process cell cannot be interrupted).
        backoff_base: First retry delay in seconds; retry ``n`` waits
            ``backoff_base * backoff_factor**n``.  Deterministic (no
            jitter) — reproducibility extends to the retry schedule.
        backoff_factor: Exponential backoff multiplier.
        fault_plan: Deterministic fault injection to install in the
            workers (and, for in-process-safe kinds, the parent) —
            the testing seam of :mod:`repro.experiments.faults`.
    """

    max_retries: int = 2
    cell_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before re-running a cell whose attempt ``attempt``
        failed."""
        return self.backoff_base * self.backoff_factor ** attempt


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock cost of one (scenario, policy, seed) simulation.

    Attributes:
        label: Scenario label.
        policy: Policy name.
        seed: Workload seed.
        seconds: Wall seconds the cell took inside its worker.
    """

    label: str
    policy: str
    seed: int
    seconds: float


def _run_cell(
    payload: _CellPayload,
    attempt: int = 0,
    shared: Optional[TrajectoryMemo] = None,
) -> CellResult:
    """Execute one matrix cell (runs inside a worker process).

    Delegates to :func:`repro.experiments.runner.run_cell_detail` —
    the same recipe the serial path uses — and wraps the summary with
    timing, engine/decision counters
    and cache telemetry (a per-cell delta frame spanning the whole
    cell, generation included, so warm-cache behaviour is observable
    from the parent and concurrent accounting in the same process —
    e.g. the serial fallback running cells in the parent — cannot
    double-count).

    ``attempt`` is the supervised executor's retry counter; it feeds
    the (single) fault-injection point and nothing else — the cell's
    simulation is a pure function of the payload, so a retried cell
    returns exactly the result the first attempt would have.

    ``shared`` is the trajectory memo (see :func:`~repro.experiments.
    runner.run_cell_detail`): the in-process sweep's, or one pool
    cell's hand-off (see :func:`_run_cell_supervised`).
    """
    from repro.core.latency import track_cache_deltas

    index, spec_idx, spec, policy_name, factory, seed, soc, solver = (
        payload
    )
    faults.maybe_inject(index, attempt)
    t0 = time.perf_counter()
    with track_cache_deltas() as cache_delta:
        summary, sim_result = run_cell_detail(
            spec, policy_name, factory, seed, soc, solver=solver,
            shared=shared,
        )
    seconds = time.perf_counter() - t0
    return CellResult(
        index=index,
        spec_index=spec_idx,
        label=spec.label,
        policy=policy_name,
        seed=seed,
        summary=summary,
        seconds=seconds,
        worker_pid=os.getpid(),
        **cache_delta,
        **{
            name: getattr(sim_result, name)
            for name in DECISION_COUNTER_FIELDS
        },
    )


def _run_cell_supervised(
    payload: _CellPayload,
    attempt: int,
    sibling: Optional[_Trajectory] = None,
    share: bool = False,
) -> Tuple[CellResult, Optional[_Trajectory]]:
    """Worker entry point for one cell.

    ``sibling`` is a QoS sibling's trajectory handed over by the
    parent (see :class:`_SiblingTrajectories`).  The cell is served
    from it only when the trajectory key computed from its own
    generated tasks equals the sibling's, and simulated otherwise.
    With ``share`` the cell also returns the trajectory it simulated
    (cells simulate untraced, so it carries no trace events), for
    the parent to hand to its later siblings.
    """
    if sibling is None and not share:
        return _run_cell(payload, attempt), None
    factory = payload[4]
    shared: TrajectoryMemo = {}
    if sibling is not None:
        key, result = sibling
        shared[(id(factory), key)] = (factory, result)
    cell = _run_cell(payload, attempt, shared)
    if share and shared:
        [((_, key), (_, result))] = shared.items()
        return cell, (key, result)
    return cell, None


class _SiblingTrajectories:
    """Parent-side store of SLA-blind trajectories for one
    :meth:`ParallelRunner._supervise_pool` call.

    A policy declaring ``reads_sla_targets = False`` runs one
    trajectory for cells that differ only in SLA targets.  Its cells
    that share a *sibling hint* — factory, seed, SoC, solver and the
    spec with its target-only fields at their defaults — are QoS
    siblings.  The first one submitted is asked to return its
    trajectory; later siblings wait while it is in flight, and each
    then carries it to its worker, which serves the cell only if the
    trajectory keys match (the hint is a guess; the key comparison
    makes serving exact).  A sibling whose trajectory is missing (its
    first sibling failed, or was restored from a journal) simulates
    and is asked in turn.  An entry is dropped once the last sibling
    of its hint has been submitted.
    """

    def __init__(self, work: Sequence[Tuple[_CellPayload, int]]) -> None:
        #: cell index -> hint id (SLA-reading cells have none)
        self._hints: Dict[int, int] = {}
        #: hint id -> sibling submissions still to come
        self._unsent: Dict[int, int] = {}
        #: hint id -> index of the last cell asked for its trajectory
        self._asked: Dict[int, int] = {}
        #: hint id -> trajectory for the siblings still to come
        self.trajectories: Dict[int, _Trajectory] = {}
        ids: Dict[tuple, int] = {}
        sibling_specs: Dict[int, ScenarioSpec] = {}
        for payload, _ in work:
            index, _, spec, _, factory, seed, soc, solver = payload
            if getattr(factory, "reads_sla_targets", True):
                continue
            # Once per spec, not per cell: replace() re-validates.
            sibling_spec = sibling_specs.get(id(spec))
            if sibling_spec is None:
                sibling_spec = sibling_specs[id(spec)] = replace(
                    spec, **_TARGET_ONLY_DEFAULTS
                )
            hint = ids.setdefault(
                (id(factory), seed, soc, solver, sibling_spec), len(ids)
            )
            self._hints[index] = hint
            self._unsent[hint] = self._unsent.get(hint, 0) + 1

    def awaits(self, payload: _CellPayload, inflight: Dict) -> bool:
        """Whether ``payload``'s trajectory is on its way: the sibling
        asked to return it is still in flight (``inflight`` is keyed
        by cell index)."""
        hint = self._hints.get(payload[0])
        if hint is None or hint in self.trajectories:
            return False
        return self._asked.get(hint) in inflight

    def submit(
        self, payload: _CellPayload
    ) -> Tuple[Optional[_Trajectory], bool]:
        """For a cell about to be submitted: the trajectory to hand
        it, and whether to ask it for its own."""
        hint = self._hints.get(payload[0])
        if hint is None:
            return None, False
        self._unsent[hint] -= 1
        if not self._unsent[hint]:
            return self.trajectories.pop(hint, None), False
        trajectory = self.trajectories.get(hint)
        if trajectory is None:
            self._asked[hint] = payload[0]
        return trajectory, trajectory is None

    def requeue(self, payload: _CellPayload) -> None:
        """A submitted cell went back to the queue."""
        hint = self._hints.get(payload[0])
        if hint is not None:
            self._unsent[hint] += 1

    def record(
        self, payload: _CellPayload, trajectory: Optional[_Trajectory]
    ) -> None:
        """Keep a returned trajectory while siblings remain unsent."""
        if trajectory is not None:
            hint = self._hints[payload[0]]
            if self._unsent[hint]:
                self.trajectories.setdefault(hint, trajectory)


def _warm_worker(
    model_names: Sequence[str],
    soc: SoCConfig,
    fault_plan: Optional[FaultPlan] = None,
) -> int:
    """Worker warm-up: pre-warm this worker's cost/predict caches.

    Runs once per worker process before it takes any cell.

    ``fault_plan`` activates deterministic fault injection *in this
    worker* (the per-cell harness of :mod:`repro.experiments.faults`);
    installing it here — rather than per payload — means every cell
    the worker ever runs consults the same plan, spawn or fork alike.
    """
    from repro.core.latency import warm_network_cost_cache
    from repro.models.zoo import build_model

    faults.install_plan(fault_plan, in_worker=True)
    return warm_network_cost_cache(
        [build_model(name) for name in model_names], soc
    )


#: Seconds :meth:`ParallelRunner.start_pool` waits for every worker's
#: ready message before counting the late ones as warm-up timeouts.
_WARMUP_TIMEOUT = 60.0

#: Largest task (pickled bytes) written to a worker that is still
#: busy.  Default pipe buffers hold at least 8 KiB on every platform,
#: so such a write completes while the worker runs its current task;
#: a larger task waits until the worker has answered everything sent
#: before it.  Otherwise a worker blocked writing a large reply and a
#: parent blocked writing it a large task could wait on each other.
_PIPE_BYTES = 8192

#: ``connection.wait`` on Windows hands all its objects to one
#: ``WaitForMultipleObjects`` call, which takes at most 64 handles; a
#: pipe and a process sentinel per worker cap a pool at 32 workers
#: there.  POSIX waits with ``poll`` and has no such cap.
_MAX_WORKERS = 32 if sys.platform == "win32" else sys.maxsize


def _worker_main(conn, warm_args: tuple) -> None:
    """Pool worker process: warm up, say ready, then run tasks.

    Each task is a pickled ``(fn, args)``; the reply is ``(True,
    fn(*args))`` or ``(False, exception)``, in task order.  A reply
    that cannot cross the pipe comes back as a :class:`RuntimeError`
    carrying its ``repr``.
    """
    _warm_worker(*warm_args)
    conn.send_bytes(pickle.dumps("ready"))
    while True:
        try:
            task = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if task is None:
            return
        fn, args = task
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            if not reply[0]:
                pickle.loads(data)  # the exception must rebuild, too
        except Exception:
            data = pickle.dumps((False, RuntimeError(
                f"reply cannot cross the pipe: {reply[1]!r}"
            )))
        conn.send_bytes(data)


class _Worker:
    """One pool worker: its process, the parent's end of its pipe,
    whether its ready message has arrived, the caller's entry for each
    task given to it and not yet answered — oldest (running) first —
    and the pickled tasks at the end of that line not yet written
    (see :data:`_PIPE_BYTES`)."""

    __slots__ = ("proc", "conn", "ready", "tasks", "held")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.tasks: Deque = deque()
        self.held: Deque[bytes] = deque()


class _WorkerPool:
    """Worker processes, one duplex pipe each.

    The parent sends a worker tasks with :meth:`send` and collects
    replies and deaths with :meth:`wait`, which multiplexes every
    worker's pipe and process sentinel through
    :func:`multiprocessing.connection.wait`.  A worker answers its
    tasks in order, so the parent always knows which task each worker
    is running (the oldest unanswered one) — a crash or a hang is
    charged to that task alone, and only that worker is replaced
    (:meth:`respawn`).
    """

    def __init__(self, size: int, warm_args: tuple) -> None:
        self._warm_args = warm_args
        self.workers: List[_Worker] = []
        try:
            for _ in range(size):
                self.workers.append(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        # The platform's default start method: fork-start workers
        # inherit the parent's warm caches, so warm-up takes
        # milliseconds; spawn-start workers warm from scratch.
        ctx = multiprocessing.get_context()
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, self._warm_args),
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child_conn.close()
        return _Worker(proc, conn)

    def free_worker(self) -> Optional[_Worker]:
        """The worker with the fewest unanswered tasks, if that is
        under two: a worker starts its next task while the parent
        handles the reply to its last."""
        worker = min(self.workers, key=lambda w: len(w.tasks))
        return worker if len(worker.tasks) < 2 else None

    def send(self, worker: _Worker, entry, fn, *args) -> None:
        """Give ``worker`` the task ``fn(*args)``; ``entry`` is the
        caller's record of it, handed back with the reply."""
        worker.tasks.append(entry)
        worker.held.append(
            pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        )
        self._flush(worker)

    @staticmethod
    def _flush(worker: _Worker) -> None:
        """Write ``worker``'s held tasks that its pipe can take now."""
        while worker.held:
            busy = len(worker.tasks) > len(worker.held)
            if busy and len(worker.held[0]) > _PIPE_BYTES:
                return
            try:
                worker.conn.send_bytes(worker.held.popleft())
            except OSError:
                return  # the worker is gone: wait() reports it

    def wait(self, timeout: Optional[float] = None):
        """Wait up to ``timeout`` seconds (``None``: until something
        happens) for replies.

        Returns ``(replies, dead)``: a ``(worker, entry, ok, value)``
        per reply, and the workers found dead, whose unanswered
        entries are still in their ``tasks``.
        """
        owners: Dict[object, _Worker] = {}
        for w in self.workers:
            owners[w.conn] = owners[w.proc.sentinel] = w
        fired = set(connection.wait(list(owners), timeout))
        replies = []
        dead = []
        for w in self.workers:
            exited = w.proc.sentinel in fired
            try:
                if w.conn in fired and not exited:
                    # One message per wake-up: a second one fires the
                    # next wait at once.
                    self._receive(w, replies)
                while exited and w.conn.poll():
                    # An exited worker's pipe may still hold replies
                    # it sent before it exited.
                    self._receive(w, replies)
            except (EOFError, OSError):
                exited = True
            if exited:
                dead.append(w)
        return replies, dead

    def _receive(self, worker: _Worker, replies: list) -> None:
        message = pickle.loads(worker.conn.recv_bytes())
        if not worker.ready:
            worker.ready = True  # the first message says ready
        else:
            ok, value = message
            replies.append((worker, worker.tasks.popleft(), ok, value))
            self._flush(worker)

    def wait_ready(self, timeout: float) -> int:
        """Block until every worker has sent its ready message, or
        ``timeout`` seconds pass; returns how many are still warming.

        Raises:
            ChildProcessError: A worker died before it was ready.
        """
        deadline = time.monotonic() + timeout
        while True:
            late = sum(1 for w in self.workers if not w.ready)
            left = deadline - time.monotonic()
            if not late or left <= 0:
                return late
            _, dead = self.wait(left)
            if dead:
                raise ChildProcessError(_death_message(dead[0]))

    def respawn(self, worker: _Worker) -> None:
        """Stop ``worker`` (dead, hung or running abandoned tasks) and
        start a fresh process in its slot.

        Raises:
            OSError: The successor could not start.
        """
        self._stop([worker], terminate=True)
        self.workers[self.workers.index(worker)] = self._spawn()

    def reset(self) -> None:
        """Respawn every worker holding unanswered tasks, so no stale
        reply reaches the pool's next user."""
        for worker in list(self.workers):
            if worker.tasks:
                self.respawn(worker)

    def close(self) -> None:
        """Stop every worker: idle ones are told to exit, busy ones
        are terminated."""
        workers, self.workers = self.workers, []
        self._stop(workers)

    @staticmethod
    def _stop(workers: Sequence[_Worker], terminate: bool = False) -> None:
        for w in workers:
            if terminate or w.tasks or not w.proc.is_alive():
                w.proc.terminate()
            else:
                try:
                    w.conn.send_bytes(pickle.dumps(None))
                except OSError:
                    w.proc.terminate()
        for w in workers:
            w.proc.join(timeout=5)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join()
            w.conn.close()


def _death_message(worker: _Worker) -> str:
    """What a dead worker's failure says: its pid and exit code."""
    worker.proc.join(timeout=1)
    return (
        f"worker process {worker.proc.pid} died "
        f"(exit code {worker.proc.exitcode})"
    )


def _spec_model_names(specs: Sequence[ScenarioSpec]) -> Tuple[str, ...]:
    """Distinct zoo model names the sweep's cells will build."""
    from repro.models.zoo import WORKLOAD_SETS

    names: Set[str] = set()
    for spec in specs:
        if spec.model_mix is not None:
            names.update(name for name, _ in spec.model_mix)
        else:
            names.update(WORKLOAD_SETS[spec.workload_set.upper()])
    return tuple(sorted(names))


def matrices_identical(
    a: Dict[str, Dict[str, ScenarioResult]],
    b: Dict[str, Dict[str, ScenarioResult]],
) -> bool:
    """Whether two matrix results carry identical metric summaries.

    The serial and parallel executors must agree bit-for-bit; this is
    the one comparison used by the smoke script, the perf benchmark
    and any caller wanting to assert the equivalence.  Compare a
    single scenario cell by wrapping it: ``{label: cell}``.
    """
    if set(a) != set(b):
        return False
    for label, cell in a.items():
        if set(cell) != set(b[label]):
            return False
        for policy, result in cell.items():
            if result.per_seed != b[label][policy].per_seed:
                return False
    return True


def _picklable(obj: object) -> bool:
    """Whether ``obj`` survives the process boundary."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class ParallelRunner:
    """Run evaluation matrices across a process pool.

    Attributes:
        workers: Worker process count; ``None`` auto-sizes to the CPU
            count.  ``1`` always runs serially in-process.
        last_timings: Per-cell wall-clock timings of the most recent
            sweep, in submission order (spec, then policy, then
            seed) — not completion order.
        last_cells: The :class:`CellResult` stream of the most recent
            sweep, in submission order.
        last_sweep: The :class:`~repro.experiments.results.
            SweepResults` accumulator of the most recent sweep
            (``None`` before the first) — exposes
            :meth:`~repro.experiments.results.SweepResults.
            cache_stats` and :meth:`~repro.experiments.results.
            SweepResults.worker_pids` for telemetry consumers.
        last_mode: ``"parallel"`` or ``"serial"`` — which path the most
            recent sweep actually took.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        solver: Optional[str] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if solver is not None and solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {solver!r} (expected one of {SOLVERS})"
            )
        self.workers = workers
        #: Engine solver override for every cell this runner executes
        #: (``None`` = the engine default).  Operational only — all
        #: solvers are pinned bit-identical — so it never enters
        #: manifests, digests or exports.
        self.solver = solver
        #: Deterministic fault plan installed into every pool worker
        #: (at its warm-up) — the testing seam that makes the
        #: failure paths below reproducible.  ``None`` in production.
        self.fault_plan = fault_plan
        self.last_timings: List[CellTiming] = []
        self.last_cells: List[CellResult] = []
        self.last_sweep: Optional[SweepResults] = None
        self.last_mode: str = "serial"
        #: Workers not ready within the warm-up timeout in the most
        #: recent :meth:`start_pool` (0 = every worker was ready).
        self.last_warmup_timeouts: int = 0
        #: Same, accumulated over every pool this runner has started —
        #: the telemetry workers report to a coordinator over the
        #: heartbeat channel (a runner can warm several pools in one
        #: sweep; the coordinator wants the run total, not the last).
        self.total_warmup_timeouts: int = 0
        self._pool: Optional[_WorkerPool] = None

    # ------------------------------------------------------------------
    # Persistent pool management
    # ------------------------------------------------------------------

    def start_pool(
        self,
        specs: Sequence[ScenarioLike] = (),
        soc: Optional[SoCConfig] = None,
    ) -> List[int]:
        """Start a persistent worker pool and warm it *now*.

        Starts the workers (each warming the models of ``specs``) and
        waits for every worker's ready message, so each one has
        started and built its caches before this call returns —
        moving cold start out of whatever the caller times next.  A
        worker not ready within 60 s is counted in
        :attr:`last_warmup_timeouts` (and warned about) instead of
        waited for.  Subsequent :meth:`run_matrix` /
        :meth:`run_supervised` calls reuse the pool until
        :meth:`close_pool`.

        Returns:
            The worker pids, sorted (empty if the pool could not
            start; the runner then degrades to per-call pools /
            serial fallback as usual).
        """
        if self._pool is not None:
            raise RuntimeError("pool already started")
        if self.workers == 1:
            # The executor will run serially in-process; a warm pool
            # would sit idle (and its telemetry would contradict
            # last_mode == "serial").
            return []
        spec_list = resolve_scenarios(specs) if specs else []
        if soc is None:
            soc = DEFAULT_SOC
        workers = min(self.workers, _MAX_WORKERS)
        pool = None
        try:
            pool = self._new_pool(workers, spec_list, soc)
            late = pool.wait_ready(_WARMUP_TIMEOUT)
        except OSError as exc:
            if pool is not None:
                pool.close()
            print(
                f"parallel: persistent pool unavailable "
                f"({type(exc).__name__}: {exc})",
                file=sys.stderr,
            )
            return []
        self.last_warmup_timeouts = late
        self.total_warmup_timeouts += late
        if late:
            print(
                f"parallel: {late} of {workers} worker(s) not ready "
                f"after {_WARMUP_TIMEOUT:g}s of warm-up; the warm-start "
                f"guarantee does not hold for this pool",
                file=sys.stderr,
            )
        self._pool = pool
        return sorted(w.proc.pid for w in pool.workers)

    def close_pool(self) -> None:
        """Shut the persistent pool down (no-op without one)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_pool()

    def _new_pool(
        self,
        workers: int,
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
    ) -> _WorkerPool:
        return _WorkerPool(
            workers,
            (_spec_model_names(spec_list), soc, self.fault_plan),
        )

    def _acquire_pool(
        self,
        cells: int,
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
    ) -> Tuple[_WorkerPool, bool]:
        """The persistent pool, or a new one sized for ``cells``
        cells; the flag says whether the caller owns (and closes) it.

        Raises:
            OSError: No pool could start.
        """
        if self._pool is not None:
            return self._pool, False
        workers = min(self.workers, cells, _MAX_WORKERS)
        return self._new_pool(workers, spec_list, soc), True

    def _release_pool(
        self, pool: _WorkerPool, owned: bool, broken: bool = False
    ) -> None:
        """Hand a pool back after one executor call: close it if the
        call owned it or it is ``broken``; otherwise respawn the
        workers still running abandoned tasks."""
        if not (owned or broken):
            try:
                pool.reset()
                return
            except OSError:
                pass
        pool.close()
        if pool is self._pool:
            # Forget a broken persistent pool so later runs start a
            # fresh one rather than resubmitting to it.
            self._pool = None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_scenario(
        self,
        spec: ScenarioLike,
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
    ) -> Dict[str, ScenarioResult]:
        """Parallel equivalent of :func:`runner.run_scenario`."""
        spec = resolve_scenarios([spec])[0]
        matrix = self.run_matrix([spec], policies, soc)
        return matrix[spec.label]

    def run_matrix(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
    ) -> Dict[str, Dict[str, ScenarioResult]]:
        """Parallel equivalent of :func:`runner.run_matrix`:
        :meth:`run_supervised` under the default :class:`Supervision`,
        assembled into ``{scenario label: {policy: ScenarioResult}}``
        with numerically identical contents to the serial path.

        Raises:
            ValueError: A cell stayed failing through its retries and
                was quarantined; the message names the first one.
        """
        return self.run_supervised(specs, policies, soc).matrix()

    def run_supervised(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]] = None,
        soc: Optional[SoCConfig] = None,
        indices: Optional[Sequence[int]] = None,
        supervision: Optional[Supervision] = None,
        acc: Optional[SweepResults] = None,
        on_cell=None,
        on_failure=None,
    ) -> SweepResults:
        """Run the sweep under per-cell supervision; never abort it.

        The fault-tolerant executor: every cell gets a bounded retry
        budget with exponential backoff, an optional wall-clock
        timeout, and — when the budget is exhausted — quarantine as a
        structured :class:`~repro.experiments.results.CellFailure`
        instead of an exception unwinding the whole sweep.  Failure
        handling by class:

        - **Cell errors** (the simulation raised): retried from the
          cell's spec after a deterministic backoff.  Retry
          determinism holds because a cell is a pure function of its
          payload — a retried cell yields bit-identical results to a
          first-try success, so supervision never perturbs exports.
        - **Worker crashes** (a worker process died): the cell that
          worker was running is charged an attempt; the cell it had
          prefetched re-runs uncharged, and only that worker is
          replaced.  Cells on the other workers are untouched.  If
          no replacement can start, the remainder drains serially
          in-process — the broken-pool fallback, folded into the
          same retry ledger.
        - **Timeouts** (``supervision.cell_timeout``): the worker
          running the expired cell is terminated and replaced (a
          hung worker never answers), the expired cell is charged an
          attempt, and its prefetched cell re-runs uncharged.  The
          other workers keep running.  Unenforceable in serial mode,
          where a cell cannot be interrupted.

        Args:
            specs: Scenario specs or registry names.
            policies: Policy factories by name (default: the paper's
                four).
            soc: SoC configuration (default: the reference SoC).
            indices: Restrict execution to these global cell indices
                (the lease and shard seam); cells keep their global
                indices, and unknown or duplicate ones are rejected.
            supervision: The retry/timeout/backoff/fault policy
                (defaults to :class:`Supervision`'s defaults).  Its
                ``fault_plan`` (or the runner's) is installed in
                every worker as it warms up, and in this
                process for the in-process-safe fault kinds.
            acc: Accumulator to fold into (for resume: pre-populated
                with previously completed cells); a fresh one is
                built when omitted.
            on_cell / on_failure: Optional callbacks invoked the
                moment each cell result / quarantined failure is
                folded in — the checkpoint-journal seam.

        Returns:
            The accumulator.  ``acc.complete`` means every cell
            succeeded; ``acc.degraded`` means quarantined failures
            remain (``acc.failures()`` lists them, and a resume can
            re-run ``acc.missing_indices()``).
        """
        sup = supervision if supervision is not None else Supervision()
        # The supervision's plan (if any) wins over the runner's for
        # the duration of this run only — a later, differently
        # supervised call on the same runner must not inherit it.
        prior_plan = self.fault_plan
        if sup.fault_plan is not None:
            self.fault_plan = sup.fault_plan
        spec_list, policies, soc, payloads = self._build_payloads(
            specs, policies, soc, indices
        )
        if acc is None:
            acc = SweepResults(spec_list, list(policies))
        payloads = [p for p in payloads if not acc.has_cell(p[0])]

        def record_cell(cell: CellResult) -> None:
            acc.add(cell)
            if on_cell is not None:
                on_cell(cell)

        def quarantine(
            payload: _CellPayload, attempts: int, kind: str,
            message: str,
        ) -> None:
            failure = CellFailure(
                index=payload[0],
                spec_index=payload[1],
                label=payload[2].label,
                policy=payload[3],
                seed=payload[5],
                kind=kind,
                attempts=attempts,
                message=message,
            )
            acc.add_failure(failure)
            print(
                f"parallel: quarantined cell {failure.index} "
                f"({failure.label}/{failure.policy}/seed "
                f"{failure.seed}) after {attempts} attempt(s): "
                f"[{kind}] {message}",
                file=sys.stderr,
            )
            if on_failure is not None:
                on_failure(failure)

        installed_parent_plan = False
        if self.fault_plan is not None:
            # In-process activation for the serial path and the
            # serial fallback; crash/hang are worker-only by design.
            faults.install_plan(self.fault_plan, in_worker=False)
            installed_parent_plan = True
        try:
            # Only the policy factories can realistically fail to
            # pickle (specs and SoCs are frozen dataclasses of
            # primitives), so probe the distinct factories — by
            # identity, since a factory need not be hashable.
            factories = tuple(
                {id(p[4]): p[4] for p in payloads}.values()
            )
            remaining: List[Tuple[_CellPayload, int]] = [
                (p, 0) for p in payloads
            ]
            self.last_mode = "serial"
            if (
                self.workers > 1
                and len(payloads) > 1
                and _picklable(factories)
            ):
                remaining = self._supervise_pool(
                    remaining, spec_list, soc, sup,
                    record_cell, quarantine,
                )
            # In-process cells share SLA-blind trajectories for the
            # rest of this call only.
            shared: TrajectoryMemo = {}
            for payload, attempt in remaining:
                self._supervise_serial(
                    payload, attempt, sup, record_cell, quarantine,
                    shared,
                )
        finally:
            self.fault_plan = prior_plan
            if installed_parent_plan:
                faults.clear_plan()
        cells = acc.cells()
        self.last_sweep = acc
        self.last_cells = cells
        self.last_timings = [
            CellTiming(
                label=c.label, policy=c.policy, seed=c.seed,
                seconds=c.seconds,
            )
            for c in cells
        ]
        return acc

    def _supervise_serial(
        self,
        payload: _CellPayload,
        attempt: int,
        sup: Supervision,
        record_cell,
        quarantine,
        shared: TrajectoryMemo,
    ) -> None:
        """Run one cell in-process under the retry ledger.

        Timeouts are unenforceable here (no process boundary to kill
        across); error retries and quarantine work identically to the
        pool path.
        """
        while True:
            try:
                cell = _run_cell(payload, attempt, shared)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if attempt >= sup.max_retries:
                    quarantine(
                        payload, attempt + 1, "error",
                        f"{type(exc).__name__}: {exc}",
                    )
                    return
                delay = sup.backoff(attempt)
                if delay:
                    time.sleep(delay)
                attempt += 1
            else:
                record_cell(cell)
                return

    def _supervise_pool(
        self,
        work: List[Tuple[_CellPayload, int]],
        spec_list: Sequence[ScenarioSpec],
        soc: SoCConfig,
        sup: Supervision,
        record_cell,
        quarantine,
    ) -> List[Tuple[_CellPayload, int]]:
        """Pool half of :meth:`run_supervised`.

        Cells are sent individually (supervision granularity is one
        cell), two per worker, so a worker starts its next cell while
        the parent records the last.  A worker runs its cells in order, so its oldest
        unanswered cell is the one running: that cell's wall-clock
        deadline is stamped when it becomes the oldest (once the
        worker is ready), and a crash or timeout charges it alone.
        SLA-blind QoS siblings share one simulated trajectory through
        a :class:`_SiblingTrajectories` store that lives for this
        call.

        Returns the work that still needs the serial fallback (empty
        unless no pool, or no replacement worker, could start); each
        entry keeps its retry-ledger attempt count.
        """
        queue = deque(work)
        try:
            pool, owned = self._acquire_pool(len(queue), spec_list, soc)
        except OSError as exc:
            print(
                f"parallel: process pool unavailable "
                f"({type(exc).__name__}: {exc}); supervising "
                f"{len(queue)} cells serially",
                file=sys.stderr,
            )
            return list(queue)
        self.last_mode = "parallel"
        #: cell index -> [payload, attempt, deadline or None] for the
        #: cells sent to a worker and not yet answered
        inflight: Dict[int, list] = {}
        siblings = _SiblingTrajectories(work)
        broken = False

        def requeue(payload: _CellPayload, attempt: int) -> None:
            siblings.requeue(payload)
            queue.append((payload, attempt))

        def requeue_or_quarantine(
            payload: _CellPayload, attempt: int, kind: str,
            message: str,
        ) -> None:
            if attempt >= sup.max_retries:
                quarantine(payload, attempt + 1, kind, message)
            else:
                requeue(payload, attempt + 1)

        def replace_worker(
            worker: _Worker, kind: str, message: str
        ) -> bool:
            """Charge ``worker``'s running cell, requeue its
            prefetched one uncharged, and start a successor; False if
            none could start."""
            for i, (payload, attempt, _) in enumerate(worker.tasks):
                del inflight[payload[0]]
                if i:
                    requeue(payload, attempt)
                else:
                    requeue_or_quarantine(payload, attempt, kind, message)
            worker.tasks.clear()
            try:
                pool.respawn(worker)
            except OSError as exc:
                print(
                    f"parallel: could not replace a pool worker "
                    f"({type(exc).__name__}: {exc}); draining "
                    f"remaining cells serially",
                    file=sys.stderr,
                )
                return False
            return True

        def fall_back() -> List[Tuple[_CellPayload, int]]:
            nonlocal broken
            broken = True
            for payload, attempt, _ in inflight.values():
                requeue(payload, attempt)
            return list(queue)

        try:
            while queue or inflight:
                while queue:
                    worker = pool.free_worker()
                    if worker is None or (
                        inflight and siblings.awaits(queue[0][0], inflight)
                    ):
                        break
                    payload, attempt = queue.popleft()
                    entry = [payload, attempt, None]
                    pool.send(
                        worker, entry, _run_cell_supervised, payload,
                        attempt, *siblings.submit(payload),
                    )
                    inflight[payload[0]] = entry
                wait_timeout = None
                if sup.cell_timeout is not None:
                    now = time.monotonic()
                    deadlines = []
                    for worker in pool.workers:
                        if worker.ready and worker.tasks:
                            running = worker.tasks[0]
                            if running[2] is None:
                                running[2] = now + sup.cell_timeout
                            deadlines.append(running[2])
                    if deadlines:
                        wait_timeout = max(0.0, min(deadlines) - now)
                replies, dead = pool.wait(wait_timeout)
                for _, (payload, attempt, _), ok, value in replies:
                    del inflight[payload[0]]
                    if ok:
                        cell, trajectory = value
                        siblings.record(payload, trajectory)
                        record_cell(cell)
                    elif attempt >= sup.max_retries:
                        quarantine(
                            payload, attempt + 1, "error",
                            f"{type(value).__name__}: {value}",
                        )
                    else:
                        delay = sup.backoff(attempt)
                        if delay:
                            time.sleep(delay)
                        requeue(payload, attempt + 1)
                for worker in dead:
                    delay = (
                        sup.backoff(worker.tasks[0][1])
                        if worker.tasks else 0.0
                    )
                    if not replace_worker(
                        worker, "crash", _death_message(worker)
                    ):
                        return fall_back()
                    if delay:
                        time.sleep(delay)
                if sup.cell_timeout is None:
                    continue
                now = time.monotonic()
                for worker in list(pool.workers):
                    deadline = worker.tasks[0][2] if worker.tasks else None
                    if deadline is not None and now >= deadline:
                        if not replace_worker(
                            worker, "timeout",
                            f"cell exceeded the {sup.cell_timeout}s "
                            f"wall-clock timeout",
                        ):
                            return fall_back()
            return []
        finally:
            self._release_pool(pool, owned, broken)

    # ------------------------------------------------------------------

    def _build_payloads(
        self,
        specs: Sequence[ScenarioLike],
        policies: Optional[Dict[str, PolicyFactory]],
        soc: Optional[SoCConfig],
        indices: Optional[Sequence[int]],
    ):
        """Resolve the sweep into indexed cell payloads."""
        if policies is None:
            policies = default_policies()
        if soc is None:
            soc = DEFAULT_SOC
        spec_list = resolve_scenarios(specs)
        check_unique_labels(spec_list)
        cells = [
            (spec_idx, spec, name, factory, seed)
            for spec_idx, spec in enumerate(spec_list)
            for name, factory in policies.items()
            for seed in spec.seeds
        ]
        payloads: List[_CellPayload] = [
            (index, spec_idx, spec, name, factory, seed, soc,
             self.solver)
            for index, (spec_idx, spec, name, factory, seed)
            in enumerate(cells)
        ]
        if indices is not None:
            wanted = list(indices)
            bad = sorted(
                {i for i in wanted if not 0 <= i < len(payloads)}
            )
            if bad:
                raise ValueError(
                    f"cell indices {bad} outside sweep of "
                    f"{len(payloads)} cells"
                )
            if len(set(wanted)) != len(wanted):
                raise ValueError("duplicate cell indices requested")
            chosen = set(wanted)
            payloads = [p for p in payloads if p[0] in chosen]
        return spec_list, policies, soc, payloads
