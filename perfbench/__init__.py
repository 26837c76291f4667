"""Benchmark of the evimech toolkit: workloads, timed runs and a patching tracer."""
