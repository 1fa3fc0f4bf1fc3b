"""End-to-end benchmark of the ScienceBenchmark reproduction.

Run one workload with::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

See ``perfbench/run.py`` for the workloads and metrics.
"""
