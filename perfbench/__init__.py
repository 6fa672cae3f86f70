"""Benchmark for fastparquet_ray: workloads, span tracing and the
single-core layer replay. Entry point: ``python3 perfbench/run.py``."""
