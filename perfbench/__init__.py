"""Benchmark of the tomoments Monte Carlo sweeps; see perfbench/README.md."""
