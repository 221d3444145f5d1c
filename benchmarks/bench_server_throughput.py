"""Server throughput: threaded group-commit scaling.

Runs :func:`repro.bench.serverload.run_server_load` at 1, 8 and 32
clients and writes ``BENCH_server.json`` next to the repository root —
the non-gating CI artifact tracking transactions per second, commit
batch size, and the amortized sync / counter cost per transaction.

Statistical validity: every point warms up first and then loops for a
minimum measured duration (~2 s in the full run), so the numbers are
not quantized by a fixed transaction count finishing in a few clock
ticks.

The shape that matters: batch size ~1 with a single client (no
batching tax), growing well past 2 at 32 clients while
syncs-per-transaction falls toward ``1 / batch``.  ``cpu_count`` in the
artifact records the hardware that produced the numbers.

Run directly (``python benchmarks/bench_server_throughput.py``) or via
pytest (``pytest benchmarks/bench_server_throughput.py -q``).
"""

from __future__ import annotations

import json
import os
import sys

from repro.bench.serverload import run_server_load

CLIENT_POINTS = (1, 8, 32)
OUTPUT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_server.json")


def run_points(duration_s: float = 2.0, warmup_txns: int = 5):
    """The threaded server at every client point."""
    threaded = {}
    for clients in CLIENT_POINTS:
        threaded[str(clients)] = run_server_load(
            clients=clients,
            warmup_txns=warmup_txns,
            duration_s=duration_s,
        ).as_dict()
    return {"threaded": threaded, "cpu_count": os.cpu_count() or 1}


def write_report(results, path: str = OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump({"server_throughput": results}, handle, indent=2)
        handle.write("\n")


def test_server_throughput_smoke():
    """Smoke gate: every point completes cleanly and concurrency batches."""
    results = run_points(duration_s=0.8, warmup_txns=3)
    for clients, point in results["threaded"].items():
        assert point["errors"] == 0, point
        assert point["transactions"] > 0, point
    # 32 concurrent clients must share commits; a lone client must not wait.
    assert results["threaded"]["32"]["mean_batch_size"] > 1.0
    write_report(results)


if __name__ == "__main__":
    report = run_points()
    write_report(report)
    json.dump({"server_throughput": report}, sys.stdout, indent=2)
    print()
