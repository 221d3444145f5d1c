"""The repository's end-to-end benchmark: four workloads, end-to-end
metrics with regression bounds, and a traced per-layer budget.

Run ``python -m benchmarks.e2e.run`` (see ``README.md``); the contract
with the driver is ``BENCHMARK.json`` at the repository root.
"""
