"""Host-performance benchmark of the MoCA reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload ref-matrix --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced pass maps per-layer numbers onto end-to-end ones.
"""
