"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) against the public API of
the checkout's ``src/repro`` and prints its metrics as the last line of
standard output.  ``BENCHMARK.json`` at the repository root declares the
workloads, the metrics and the bound each end-to-end metric may worsen by.
"""
