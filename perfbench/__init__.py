"""Benchmark for perccode: workloads, correctness checks and span tracing.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-saturating --seed 1 --seconds 10 --trace 0
"""
