"""E21: end-to-end HTTP benchmark for ``repro serve`` with a per-layer
time breakdown.  Run ``python -m benchmarks.e2e --help``; the workloads,
metrics and numbers are described in this directory's README.md."""
