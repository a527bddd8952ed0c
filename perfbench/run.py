"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ref-matrix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  A wrong program output exits with status 1.
Run details (host, sample counts, failures) and the traced spans go
to ``.perfbench/`` in the repository root.

The simulator has no hardware reference to compare against, so the
model is unvalidated and no accuracy error figure is reported.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS/OpenMP pools before anything can load numpy.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Extra set-up repetitions, each in a fresh interpreter, so
#: ``setup_s`` is a median of several cold starts.
SETUP_PROBES = 4


def host_metadata() -> dict:
    import multiprocessing

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def probe_setup(args) -> list:
    """``(setup seconds, host speed)`` samples from fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-probe",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], probe["speed"]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from perfbench import harness
    from perfbench.tracing import PER_LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    workload = WORKLOADS[args.workload]
    setup = harness.set_up(workload, args.seed, _STARTED)
    if args.setup_probe:
        setup.runner.close_pool()
        print(json.dumps({"setup_s": setup.seconds, "speed": setup.speed}))
        return 0

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, passes, problems, recorders = harness.traced_run(
                workload, setup, args.seed, args.seconds, work
            )
            units = PER_LAYER_METRICS
            samples = {"passes": len(passes)}
        else:
            passes = harness.timed_passes(
                workload, setup.runner, args.seed, args.seconds, work
            )
            rss = harness.peak_rss_mb(
                pid for p in passes for pid in p.acc.worker_pids()
            )
            problems, recorders = [], []
            units = harness.E2E_METRICS
    finally:
        setup.runner.close_pool()
        shutil.rmtree(work, ignore_errors=True)
    unfinished = harness.unfinished_cells(passes)
    problems += unfinished + harness.golden_problems(ROOT)
    if workload.pool:
        problems += harness.export_problems(passes[0])
    unscaled = {}
    if not args.trace:
        setup_samples = [(setup.seconds, setup.speed)] + probe_setup(args)
        metrics, samples = harness.e2e_metrics(passes, setup_samples, rss)
        unscaled, _ = harness.e2e_metrics(
            passes, setup_samples, rss, scaled=False
        )
        samples["host_speed"] = round(
            statistics.median(p.speed for p in passes), 4
        )
    simulated = harness.simulated_metrics(passes[0])
    failures = [f for p in passes for f in p.acc.failures()]
    attempted = sum(p.attempted for p in passes)
    failed = len(failures) + len(unfinished)

    host = host_metadata()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={host['nproc']} python={host['python']} "
        f"numpy={host['numpy']} pins="
        + ",".join(f"{k}={v}" for k, v in host["thread_pins"].items())
    )
    for name, unit in units.items():
        print(f"  {name:<34s} {metrics[name]:>14.6g} {unit}")
    for name, unit in harness.SIMULATED_METRICS.items():
        print(f"  {name:<34s} {simulated[name]:>14.6g} {unit} (pass 0)")
    if unscaled:
        print("  unscaled host time: " + " ".join(
            f"{name}={unscaled[name]:.6g}" for name in units
        ))
    print(
        "  samples: " + " ".join(f"{k}={v}" for k, v in samples.items())
        + f" cells_failed_ratio={failed / max(attempted, 1):.6g}"
        f" ({failed} of {attempted} cells failed)"
    )
    for f in failures:
        print(
            f"  quarantined: {f.label}/{f.policy}/seed {f.seed} "
            f"[{f.kind}] {f.message}"
        )
    for msg in problems:
        print(f"  WRONG OUTPUT: {msg}", file=sys.stderr)
    print("  model: unvalidated (no hardware reference); no accuracy "
          "error figure is reported")

    for i, rec in enumerate(recorders):
        rec.write(state / f"spans-{stem}-{i}.json.gz")
    (state / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "samples": samples,
        "metrics": metrics,
        "unscaled": unscaled,
        "simulated_pass0": simulated,
        "failures": [
            {"label": f.label, "policy": f.policy, "seed": f.seed,
             "kind": f.kind, "message": f.message}
            for f in failures
        ],
        "problems": problems,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
