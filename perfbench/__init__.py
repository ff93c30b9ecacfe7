"""The repository benchmark: four fixed workloads driven through the public API.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root. ``BENCHMARK.json`` lists
the workloads and metrics; ``perfbench/rationale.json`` records why each
workload exists, what its seed changes, and which end-to-end metric each
per-layer metric is expected to move.
"""
