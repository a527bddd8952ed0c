"""Tests for per-cell sweep supervision: retry determinism,
quarantine instead of abort, pool-crash recovery charged to the
crashing cell alone, cell timeouts that replace only the hung worker,
the pool's lifecycle, and run_matrix's report of a quarantined
cell."""

import multiprocessing

import pytest

from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.runner import (
    POLICY_ORDER,
    ScenarioSpec,
    run_matrix,
)
from repro.reporting import sweep_to_csv, sweep_to_json
from repro.sim.qos import QosLevel

SPEC = ScenarioSpec(
    workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=8,
    seeds=(1, 2),
)
#: 1 scenario x 4 policies x 2 seeds.
CELLS = len(POLICY_ORDER) * len(SPEC.seeds)

#: Fast deterministic backoff for tests.
FAST = dict(backoff_base=0.0)


@pytest.fixture(scope="module")
def serial_matrix():
    return run_matrix([SPEC])


def _supervised(plan=None, workers=1, **kwargs):
    sup = Supervision(fault_plan=plan, **{**FAST, **kwargs})
    runner = ParallelRunner(workers=workers)
    acc = runner.run_supervised([SPEC], supervision=sup)
    return runner, acc


class TestSupervisionPolicy:
    def test_backoff_schedule(self):
        sup = Supervision(backoff_base=0.5, backoff_factor=2.0)
        assert [sup.backoff(a) for a in range(3)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(cell_timeout=0.0),
            dict(cell_timeout=-1.0),
            dict(backoff_base=-0.1),
            dict(backoff_factor=0.0),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Supervision(**kwargs)


class TestSerialSupervision:
    def test_fault_free_identical_to_run_matrix(self, serial_matrix):
        _, acc = _supervised()
        assert acc.complete and not acc.degraded
        assert acc.matrix() == serial_matrix

    def test_transient_fault_retried_bit_identical(self, serial_matrix):
        """Retry determinism: a cell that failed transiently and was
        re-run yields exactly the result a clean run yields."""
        _, acc = _supervised(FaultPlan.parse("transient:cells=0,5"))
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix

    def test_poison_cell_quarantined_not_raised(self):
        _, acc = _supervised(
            FaultPlan.parse("transient:cells=3:attempts=all"),
            max_retries=1,
        )
        assert not acc.complete and acc.degraded
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 3
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial try + 1 retry
        assert "injected transient fault" in failure.message
        assert acc.missing_indices() == [3]

    def test_zero_retries_single_attempt(self):
        _, acc = _supervised(
            FaultPlan.parse("transient:cells=1"), max_retries=0
        )
        (failure,) = acc.failures()
        assert failure.attempts == 1

    def test_crash_plan_harmless_in_serial_mode(self, serial_matrix):
        """A pool-targeted crash/hang plan must not kill a serial
        run — the worker-only kinds are suppressed in-process."""
        _, acc = _supervised(
            FaultPlan.parse("crash:cells=0;hang:cells=1:seconds=3600")
        )
        assert acc.complete
        assert acc.matrix() == serial_matrix

    def test_resume_accumulator_skips_done_cells(self, serial_matrix):
        """The resume seam: cells already folded into the accumulator
        are not re-run."""
        runner = ParallelRunner(workers=1)
        first = runner.run_supervised(
            [SPEC],
            supervision=Supervision(
                fault_plan=FaultPlan.parse(
                    "transient:cells=2:attempts=all"
                ),
                max_retries=0,
                **FAST,
            ),
        )
        assert first.missing_indices() == [2]
        done_before = {c.index: c for c in first.cells()}
        seen = []
        acc = runner.run_supervised(
            [SPEC],
            indices=first.missing_indices(),
            acc=first,
            supervision=Supervision(**FAST),
            on_cell=lambda c: seen.append(c.index),
        )
        assert seen == [2]
        assert acc.complete
        assert acc.matrix() == serial_matrix
        for index, cell in done_before.items():
            assert acc.cells()[index] is cell  # untouched, not re-run


@pytest.mark.slow
class TestPoolSupervision:
    def test_worker_crash_recovered_bit_identical(self, serial_matrix):
        """An injected worker crash is retried on a replacement
        worker; the finished sweep is bit-identical."""
        runner, acc = _supervised(
            FaultPlan.parse("crash:cells=2"), workers=2
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix

    def test_poison_crash_quarantined_others_finish(self):
        """Graceful degradation: a cell that crashes its worker on
        every attempt is quarantined; every healthy cell completes."""
        runner, acc = _supervised(
            FaultPlan.parse("crash:cells=2:attempts=all"),
            workers=2, max_retries=1,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert acc.degraded
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 2
        assert failure.kind == "crash"

    def test_crash_charged_to_the_crashing_cell_only(self):
        """The parent knows which cell each worker runs: a crash
        quarantines that cell alone (``max_retries=0``), and the cell
        running on the other worker at the time completes."""
        runner, acc = _supervised(
            FaultPlan.parse("crash:cells=2:attempts=all"),
            workers=2, max_retries=0,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        (failure,) = acc.failures()
        assert failure.index == 2
        assert failure.kind == "crash"
        assert failure.attempts == 1
        assert sorted(c.index for c in acc.cells()) == [
            i for i in range(CELLS) if i != 2
        ]

    def test_hung_cell_replaces_only_its_worker(self):
        """A timeout terminates and replaces the hung worker alone:
        the healthy worker keeps its process and finishes cells after
        the deadline, so the sweep sees at most one new pid."""
        spec = ScenarioSpec(
            workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=100,
            seeds=tuple(range(1, 13)),
        )
        events = []
        runner = ParallelRunner(workers=2)
        acc = runner.run_supervised(
            [spec],
            supervision=Supervision(
                fault_plan=FaultPlan.parse("hang:cells=1:attempts=all"),
                max_retries=0, cell_timeout=1.0, **FAST,
            ),
            on_cell=lambda cell: events.append(cell.worker_pid),
            on_failure=lambda failure: events.append(None),
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        (failure,) = acc.failures()
        assert (failure.index, failure.kind) == (1, "timeout")
        assert len(acc.cells()) == len(POLICY_ORDER) * 12 - 1
        assert len(acc.worker_pids()) <= runner.workers + 1
        cut = events.index(None)
        before, after = set(events[:cut]), set(events[cut + 1:])
        assert after, "sweep too short: nothing ran after the deadline"
        assert before & after  # the healthy worker survived

    def test_hung_cell_times_out_and_is_quarantined(self):
        runner, acc = _supervised(
            FaultPlan.parse("hang:cells=1:attempts=all:seconds=120"),
            workers=2, max_retries=0, cell_timeout=2.0,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert len(acc.cells()) == CELLS - 1
        (failure,) = acc.failures()
        assert failure.index == 1
        assert failure.kind == "timeout"
        assert "wall-clock timeout" in failure.message

    def test_queued_cells_not_charged_for_hung_workers(self):
        """The window holds two cells per worker.  With both workers
        hung, the cells queued behind them are not yet running, so
        their deadlines are not stamped: only the hung cells time
        out, and every other cell finishes (with ``max_retries=0`` a
        charged attempt would have quarantined it)."""
        runner, acc = _supervised(
            FaultPlan.parse("hang:cells=0,1:attempts=all:seconds=60"),
            workers=2, max_retries=0, cell_timeout=1.0,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert sorted(f.index for f in acc.failures()) == [0, 1]
        assert {f.kind for f in acc.failures()} == {"timeout"}
        assert len(acc.cells()) == CELLS - 2

    def test_timed_out_retry_exports_identical(self, serial_matrix):
        runner, acc = _supervised(
            FaultPlan.parse("hang:cells=1:attempts=1:seconds=60"),
            workers=2, max_retries=1, cell_timeout=1.0,
        )
        if runner.last_mode != "parallel":
            pytest.skip("process pool unavailable")
        assert acc.complete, acc.failures()
        matrix = acc.matrix()
        assert sweep_to_json(matrix) == sweep_to_json(serial_matrix)
        assert sweep_to_csv(matrix) == sweep_to_csv(serial_matrix)

    def test_transient_faults_in_workers_retried(self, serial_matrix):
        runner, acc = _supervised(
            FaultPlan.parse("transient:rate=0.5:seed=11"), workers=2
        )
        assert acc.complete, acc.failures()
        assert acc.matrix() == serial_matrix


@pytest.mark.slow
class TestPoolLifecycle:
    def test_start_pool_needs_no_manager(self, monkeypatch):
        """The ready handshake replaces the manager-backed barrier:
        with no manager process available, every worker still comes
        up warm and distinct."""

        def no_manager(*args, **kwargs):
            raise OSError("no manager process in this sandbox")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        runner = ParallelRunner(workers=2)
        try:
            pids = runner.start_pool([SPEC])
            if not pids:
                pytest.skip("process pool unavailable")
            assert len(set(pids)) == 2
            assert runner.last_warmup_timeouts == 0
        finally:
            runner.close_pool()

    def test_replaced_and_closed_workers_are_reaped(self):
        def children():
            return {p.pid for p in multiprocessing.active_children()}

        others = children()
        plan = FaultPlan.parse("hang:cells=1:attempts=all")
        runner = ParallelRunner(workers=2, fault_plan=plan)
        try:
            pids = set(runner.start_pool([SPEC]))
            if not pids:
                pytest.skip("process pool unavailable")
            acc = runner.run_supervised(
                [SPEC],
                supervision=Supervision(
                    max_retries=0, cell_timeout=1.0, **FAST
                ),
            )
            (failure,) = acc.failures()
            assert failure.kind == "timeout"
            hung = pids - set(acc.worker_pids())
            live = children() - others
            assert len(hung) == 1 and not hung & live
            assert len(live) == 2  # the survivor and the replacement
        finally:
            runner.close_pool()
        assert not (pids | live) & children()

    def test_abandoned_sweep_leaves_no_stale_replies(self, serial_matrix):
        """An ``on_cell`` that raises mid-sweep abandons the run; the
        persistent pool's busy workers are replaced, so the next run
        gets no reply meant for the abandoned one."""

        class Abandon(Exception):
            pass

        def on_cell(cell):
            raise Abandon

        runner = ParallelRunner(workers=2)
        try:
            if not runner.start_pool([SPEC]):
                pytest.skip("process pool unavailable")
            with pytest.raises(Abandon):
                runner.run_supervised([SPEC], on_cell=on_cell)
            assert runner.run_supervised([SPEC]).matrix() == serial_matrix
            assert runner.last_mode == "parallel"
        finally:
            runner.close_pool()


@pytest.mark.slow
class TestRunMatrixFailure:
    def test_quarantined_cell_named_in_error(self):
        """run_matrix retries a failing cell under the default
        supervision, quarantines it, and raises with its error."""
        plan = FaultPlan.parse("transient:cells=1:attempts=all")
        runner = ParallelRunner(workers=2, fault_plan=plan)
        with pytest.raises(
            ValueError,
            match=r"cell 1 .*\[error\] SimulationError: injected "
                  r"transient fault \(cell 1, attempt 2\)",
        ):
            runner.run_matrix([SPEC])
