"""Benchmark package for the HB reproduction; the entry point is ``run.py``."""
