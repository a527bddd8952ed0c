"""Golden regression: pin the reference matrix's metric fingerprints.

The 36 reference (scenario, policy) cells — Table III sets A/B/C
crossed with QoS-H/M/L, all four policies — are fingerprinted at full
float precision and compared against ``tests/goldens/
reference_matrix.json``.  A refactor that silently changes simulator
outputs fails here.

After an *intentional* output change, re-bless with::

    PYTHONPATH=src python scripts/bless_goldens.py
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from repro.experiments.golden import (
    compute_reference_fingerprints,
    matrix_fingerprint,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.results import DECISION_COUNTER_FIELDS
from repro.experiments.runner import (
    default_policies,
    run_cell_detail,
    run_matrix,
)

GOLDEN_PATH = Path(__file__).parent / "goldens" / "reference_matrix.json"
ENGINE_COUNTERS_PATH = (
    Path(__file__).parent / "goldens" / "engine_counters.json"
)

RE_BLESS = "PYTHONPATH=src python scripts/bless_goldens.py"


def load_golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; create it with: {RE_BLESS}"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_reference_matrix_matches_goldens():
    golden = load_golden()
    actual = compute_reference_fingerprints(
        num_tasks=golden["num_tasks"], seeds=tuple(golden["seeds"])
    )
    expected = golden["cells"]
    assert set(actual) == set(expected), (
        "reference matrix cells changed shape; if intentional, "
        f"re-bless with: {RE_BLESS}"
    )
    mismatched = sorted(
        cell for cell in expected if actual[cell] != expected[cell]
    )
    assert not mismatched, (
        f"{len(mismatched)}/{len(expected)} reference cells changed "
        f"metrics: {mismatched[:6]}{'...' if len(mismatched) > 6 else ''} "
        f"— simulator outputs moved. If intentional, re-bless with: "
        f"{RE_BLESS}"
    )


def test_parallel_path_matches_goldens_too():
    """The golden pins must hold through the parallel executor as well
    (serial/parallel bit-identity, enforced end to end)."""
    golden = load_golden()
    from repro.experiments.golden import reference_specs

    specs = reference_specs(
        num_tasks=golden["num_tasks"], seeds=tuple(golden["seeds"])
    )[:3]  # one workload set is enough here; the serial test covers all
    runner = ParallelRunner(workers=2)
    matrix = runner.run_matrix(specs)
    actual = matrix_fingerprint(matrix)
    expected = {
        cell: digest
        for cell, digest in golden["cells"].items()
        if cell.startswith("Workload-A/")
    }
    for cell, digest in expected.items():
        assert actual[cell] == digest, cell
    if runner.last_mode != "parallel":
        import pytest

        pytest.skip(
            "process pool unavailable: goldens checked via serial fallback"
        )


def compute_engine_counters() -> dict:
    """The kernel's work counters for every reference cell at golden
    size.  Each cell is simulated (no QoS sibling serves it), so the
    counters describe the engine's own run."""
    from repro.experiments.golden import reference_specs

    counters = {}
    for spec in reference_specs():
        for name, factory in default_policies().items():
            for seed in spec.seeds:
                _, result = run_cell_detail(spec, name, factory, seed)
                counters[f"{spec.label}/{name}/{seed}"] = {
                    field: getattr(result, field)
                    for field in DECISION_COUNTER_FIELDS
                }
    return counters


def test_engine_counters_match_goldens():
    """Events, epoch-cache reuse and plan counts of the 36 reference
    cells are pinned exactly: a change to the engine loop that keeps
    the outputs but does different work shows up here."""
    assert ENGINE_COUNTERS_PATH.exists(), (
        f"missing {ENGINE_COUNTERS_PATH}; create it with: {RE_BLESS}"
    )
    expected = json.loads(ENGINE_COUNTERS_PATH.read_text())
    actual = compute_engine_counters()
    assert sorted(actual) == sorted(expected)
    moved = sorted(cell for cell in expected if actual[cell] != expected[cell])
    assert not moved, (
        f"{len(moved)}/{len(expected)} cells changed engine counters, "
        f"first {moved[0]}: {actual[moved[0]]} != {expected[moved[0]]}"
    )


def _bless_module():
    path = Path(__file__).parent.parent / "scripts" / "bless_goldens.py"
    spec = importlib.util.spec_from_file_location("bless_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bench_rc", [1, 0])
def test_bless_refuses_while_paper_benches_fail(
    bench_rc, tmp_path, monkeypatch
):
    bless = _bless_module()
    commands = []

    def bench_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, bench_rc)

    written = []
    monkeypatch.setattr(bless.subprocess, "run", bench_run)
    monkeypatch.setattr(bless, "GOLDEN_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(bless, "compute_reference_fingerprints", dict)
    monkeypatch.setattr(
        bless, "bless_sweep_exports", lambda: written.append("exports")
    )
    monkeypatch.setattr(
        bless, "bless_engine_counters", lambda: written.append("counters")
    )
    if bench_rc:
        with pytest.raises(SystemExit) as info:
            bless.main()
        assert info.value.code == 1
        assert not (tmp_path / "golden.json").exists() and not written
    else:
        bless.main()
        assert (tmp_path / "golden.json").exists() and written
    [cmd] = commands
    assert cmd[-1] == "--benchmark-disable"
    assert "benchmarks/bench_fig5.py" in cmd
