"""The benchmark behind perfbench/run.py: inputs, workloads, tracing, metrics."""
