"""Property pins for the epoch-horizon kernel.

``solver="kernel"`` collapses runs of pure-completion events into one
fused advance+retire sweep, but it replicates the reference loop's
float sequence operation for operation — so every simulation it runs
must be **bit-identical** (``==`` on floats, no tolerance) to
``solver="reference"`` (:mod:`repro.sim.reference`).  These tests pin
that across:

- random scenarios (workload set, QoS level, load factor, task count
  all drawn from a seeded RNG) crossed with *all three* decision
  cadences;
- fault-injected supervised sweeps (transient faults + retries), where
  the retried cells must land bit-identical whichever solver ran them;
- the 36-cell reference matrix (nine scenarios x four policies) at
  spot-check size;
- the REPRO_CHECK sanitizer hook: an injected kernel divergence is
  caught, and agreement reports carry per-job detail.
"""

import random

import pytest

import repro.sanitizer as sanitizer
from repro.core.policy import MoCAPolicy
from repro.experiments.faults import FaultPlan
from repro.experiments.golden import reference_specs, summary_fingerprint
from repro.experiments.parallel import ParallelRunner, Supervision
from repro.experiments.runner import default_policies, run_cell_detail
from repro.models.zoo import workload_set
from repro.scenarios import ScenarioSpec
from repro.sim import reference
from repro.sim.engine import SOLVERS, Simulator
from repro.sim.plan import DecisionCadence
from repro.sim.qos import QosLevel, QosModel
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

#: Every decision-cadence mode the engine supports.
CADENCES = (
    DecisionCadence(),
    DecisionCadence(mode="block-boundary"),
    DecisionCadence(mode="interval", interval=5e5),
)

QOS_LEVELS = (QosLevel.HARD, QosLevel.MEDIUM, QosLevel.LIGHT)


def _random_tasks(soc, mem, seed):
    """A randomized scenario: workload set, QoS level, slack, load and
    task count all drawn from the seed."""
    rng = random.Random(seed)
    qos = QosModel(soc, slack_factor=rng.uniform(1.5, 3.0))
    gen = WorkloadGenerator(
        soc, workload_set(rng.choice("ABC")), mem, qos
    )
    return gen.generate(
        WorkloadConfig(
            num_tasks=rng.randint(10, 20),
            qos_level=rng.choice(QOS_LEVELS),
            load_factor=rng.uniform(0.4, 1.2),
            seed=seed,
        )
    )


def _run(soc, mem, tasks, cadence, solver):
    policy = MoCAPolicy()
    policy.reset()
    return Simulator(
        soc, tasks, policy, mem=mem, cadence=cadence, solver=solver
    ).run()


class TestKernelBitIdentity:
    """Random scenarios x all cadences: both loops, one result."""

    @pytest.mark.parametrize(
        "cadence", CADENCES, ids=[c.key for c in CADENCES]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenarios_identical_across_solvers(
        self, soc, mem, seed, cadence
    ):
        tasks = _random_tasks(soc, mem, seed)
        runs = {
            solver: _run(soc, mem, tasks, cadence, solver)
            for solver in SOLVERS
        }
        kernel, ref = runs["kernel"], runs["reference"]
        assert kernel.makespan == ref.makespan
        assert tuple(kernel.results) == tuple(ref.results)
        assert kernel.events == ref.events

    def test_kernel_fuses_events(self, soc, mem):
        """The kernel must actually reuse the epoch solve across the
        fused sweeps — otherwise it is just a slower incremental
        loop wearing the default's name."""
        tasks = _random_tasks(soc, mem, seed=0)
        result = _run(soc, mem, tasks, DecisionCadence(), "kernel")
        assert result.block_time_reuses > 0
        assert result.block_time_recomputes < result.events


class TestKernelUnderSupervision:
    """Fault-injected supervised sweeps land bit-identical whichever
    solver ran the (possibly retried) cells."""

    SPEC = ScenarioSpec(
        workload_set="A", qos_level=QosLevel.MEDIUM, num_tasks=8,
        seeds=(1, 2),
    )
    PLAN = FaultPlan.parse("transient:cells=0,5")

    def _supervised(self, solver):
        runner = ParallelRunner(workers=1, solver=solver)
        return runner.run_supervised(
            [self.SPEC],
            supervision=Supervision(
                fault_plan=self.PLAN, backoff_base=0.0
            ),
        )

    def test_fault_injected_sweep_identical_across_solvers(self):
        accs = {s: self._supervised(s) for s in SOLVERS}
        for acc in accs.values():
            assert acc.complete and not acc.degraded
        assert accs["reference"].matrix() == accs["kernel"].matrix()


class TestReferenceMatrixSpotCheck:
    """The 36 reference cells (nine scenarios x four policies) at
    spot-check size: kernel and reference fingerprints identical."""

    def test_all_36_cells_identical(self):
        specs = reference_specs(num_tasks=10, seeds=(1,))
        policies = default_policies()
        assert len(specs) * len(policies) == 36
        for spec in specs:
            for name, factory in policies.items():
                prints = {}
                for solver in SOLVERS:
                    summary, _ = run_cell_detail(
                        spec, name, factory, seed=1, solver=solver
                    )
                    prints[solver] = summary_fingerprint(summary)
                assert prints["kernel"] == prints["reference"], (
                    f"cell ({spec.label}, {name}) diverged"
                )


class TestKernelSanitizer:
    """REPRO_CHECK=1 spot-checks the fused solve against the
    reference solve; an injected divergence must be caught."""

    def test_injected_kernel_divergence_caught(
        self, soc, mem, task_factory, monkeypatch
    ):
        monkeypatch.setattr(sanitizer, "enabled", True)
        tasks = [task_factory(task_id=f"t{i}") for i in range(3)]
        sim = Simulator(soc, tasks, MoCAPolicy(), mem=mem)
        assert sim.solver == "kernel"
        monkeypatch.setattr(
            reference, "solve_block_times", lambda sim: {}
        )
        with pytest.raises(
            sanitizer.SanitizerError, match="horizon-kernel divergence"
        ):
            sim.run()

    def test_check_kernel_agreement_reports_job_detail(self):
        with pytest.raises(
            sanitizer.SanitizerError, match="job 'a'"
        ):
            sanitizer.check_kernel_agreement(
                {"a": 1.0}, {"a": 2.0}, now=3.0
            )
        with pytest.raises(
            sanitizer.SanitizerError, match="extra jobs \\['x'\\]"
        ):
            sanitizer.check_kernel_agreement(
                {"x": 1.0}, {}, now=3.0
            )
        with pytest.raises(
            sanitizer.SanitizerError, match="missing jobs \\['b'\\]"
        ):
            sanitizer.check_kernel_agreement(
                {}, {"b": 2.0}, now=3.0
            )
        # Agreement is silent.
        sanitizer.check_kernel_agreement(
            {"a": 1.0}, {"a": 1.0}, now=3.0
        )

    def test_sanitized_kernel_run_identical_to_unchecked(
        self, soc, mem, monkeypatch
    ):
        """The spot-check is a pure observer: a sanitized kernel run
        returns the same floats as an unchecked one."""
        tasks = _random_tasks(soc, mem, seed=2)
        monkeypatch.setattr(sanitizer, "enabled", False)
        plain = _run(soc, mem, tasks, DecisionCadence(), "kernel")
        monkeypatch.setattr(sanitizer, "enabled", True)
        checked = _run(soc, mem, tasks, DecisionCadence(), "kernel")
        assert checked.makespan == plain.makespan
        assert tuple(checked.results) == tuple(plain.results)
