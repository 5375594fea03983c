"""Benchmark of the vsrhe toolkit; entry point: perfbench/run.py."""
