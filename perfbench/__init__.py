"""Benchmark of the rrsim recovery loop; see README.md."""
