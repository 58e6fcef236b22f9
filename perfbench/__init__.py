"""Benchmark of the geoasian pricer; run it with perfbench/run.py."""
