"""Benchmark of the snorkel_ray program; entry point ``perfbench/run.py``."""
