"""Benchmark of the choreoqep CLI and its layers; see README.md."""
