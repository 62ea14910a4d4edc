"""Benchmark of the repro serving stack and report generator (see run.py)."""
