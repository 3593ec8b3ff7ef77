"""Benchmark harness for the approxagg CLI (see README.md)."""
