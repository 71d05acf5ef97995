"""Benchmark of simscan's compare, index and scan commands; run ``run.py``."""
