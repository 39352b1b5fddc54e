"""Benchmark of the range_rte package; run it with `python3 perfbench/run.py`."""
