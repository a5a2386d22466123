"""Layered benchmark for octoeig; run with ``python3 perfbench/run.py``."""
