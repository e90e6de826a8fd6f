"""Benchmark of the blockpr pipeline; run it with ``python3 perfbench/run.py``."""
