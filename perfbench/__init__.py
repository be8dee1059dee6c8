"""Benchmark for opnorm_lab: timed workloads, correctness checks and an
outside-in per-layer tracer.  Run it with ``python3 perfbench/run.py``.
"""
