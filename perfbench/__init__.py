"""Benchmark harness for this repository (see README.md)."""
