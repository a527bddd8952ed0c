"""Re-bless the golden fingerprints.

Run after an *intentional* change to simulator outputs or to the
sweep exporters::

    PYTHONPATH=src python scripts/bless_goldens.py

Rewrites ``tests/goldens/reference_matrix.json`` (metric fingerprints
of the 36 reference cells), ``tests/goldens/sweep_exports.json``
(byte digests of the sweep JSON/CSV export files) and
``tests/goldens/engine_counters.json`` (the engine's event, solve and
plan counters for the same 36 cells); review the diff and commit it
with the change that moved the outputs.

It refuses, writing nothing and exiting 1, while the paper-shape
benches (``benchmarks/bench_*.py``: MoCA best in every scenario, the
margins over Prema / Planaria / static pointing the paper's way) fail:
a change that breaks the paper's claims must not be blessed away.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.golden import (  # noqa: E402
    GOLDEN_NUM_TASKS,
    GOLDEN_SEEDS,
    compute_reference_fingerprints,
)

GOLDEN_PATH = ROOT / "tests" / "goldens" / "reference_matrix.json"


def benches_pass() -> bool:
    """Run the paper-shape benches at reference size, as ``ci.sh``
    does; True when they all pass."""
    benches = sorted(
        str(p.relative_to(ROOT))
        for p in (ROOT / "benchmarks").glob("bench_*.py")
    )
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": "src" + (os.pathsep + path if path else ""),
    }
    cmd = [
        sys.executable, "-m", "pytest", "-q", *benches,
        "--benchmark-disable",
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode == 0


def main() -> None:
    if not benches_pass():
        print(
            "refusing to bless: the paper-shape benches "
            "(benchmarks/bench_*.py) fail; fix the program first",
            file=sys.stderr,
        )
        sys.exit(1)
    t0 = time.time()
    cells = compute_reference_fingerprints()
    payload = {
        "num_tasks": GOLDEN_NUM_TASKS,
        "seeds": list(GOLDEN_SEEDS),
        "cells": cells,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"blessed {len(cells)} cells -> {GOLDEN_PATH} "
        f"({time.time() - t0:.1f}s)"
    )
    bless_sweep_exports()
    bless_engine_counters()


def bless_engine_counters() -> None:
    """Pin the engine's work counters of the reference cells (see
    tests/test_golden.py::test_engine_counters_match_goldens)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_golden import (  # noqa: E402
        ENGINE_COUNTERS_PATH,
        compute_engine_counters,
    )

    t0 = time.time()
    counters = compute_engine_counters()
    ENGINE_COUNTERS_PATH.write_text(
        json.dumps(counters, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"blessed engine counters of {len(counters)} cells -> "
        f"{ENGINE_COUNTERS_PATH} ({time.time() - t0:.1f}s)"
    )


def bless_sweep_exports() -> None:
    """Pin byte digests of the sweep export files (see
    tests/test_reporting.py::TestSweepExports)."""
    from repro.experiments.runner import run_matrix  # noqa: E402
    from repro.reporting import sweep_to_csv, sweep_to_json  # noqa: E402

    # Import the spec list from the test module so the bless script
    # and the test can never drift apart.
    sys.path.insert(0, str(ROOT / "tests"))
    from test_reporting import (  # noqa: E402
        GOLDEN_EXPORT_PATH,
        GOLDEN_EXPORT_SPECS,
    )

    t0 = time.time()
    matrix = run_matrix(GOLDEN_EXPORT_SPECS)
    payload = {
        "specs": [spec.to_dict() for spec in GOLDEN_EXPORT_SPECS],
        "digests": {
            "json": hashlib.sha256(
                sweep_to_json(matrix).encode()
            ).hexdigest()[:16],
            "csv": hashlib.sha256(
                sweep_to_csv(matrix).encode()
            ).hexdigest()[:16],
        },
    }
    GOLDEN_EXPORT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"blessed sweep export digests -> {GOLDEN_EXPORT_PATH} "
        f"({time.time() - t0:.1f}s)"
    )


if __name__ == "__main__":
    main()
