"""Server-throughput driver: N client threads against a live TDB service.

Measures what the service layer adds over the embedded stack: group
commit under the threaded server.  The database is *file-backed* with
durable syncs (``fsync=True``), served over loopback TCP and hammered
by ``clients`` threads each running small insert transactions through
:class:`~repro.server.client.TdbClient`.

Statistical validity: every client first runs ``warmup_txns``
unrecorded transactions (connection setup, allocator and cache warmup,
JIT-ish first-touch costs), then the measured phase loops until at
least ``duration_s`` seconds have elapsed — not a fixed transaction
count, so fast machines measure more work instead of finishing before
the clock resolution matters.

The result reports throughput, the per-transaction latency
distribution, the commit batch-size distribution, and the two costs
group commit exists to amortize: durable syncs and one-way-counter
advances per committed transaction.

Runnable: ``python -m repro.bench.serverload --clients 32``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.metrics import LatencyStats
from repro.config import ChunkStoreConfig
from repro.db import Database
from repro.server import BackpressureConfig, TdbClient, TdbServer

__all__ = ["ServerLoadResult", "run_server_load"]


@dataclass
class ServerLoadResult:
    """One load run's numbers, JSON-able for benchmark artifacts."""

    clients: int
    transactions: int
    warmup_txns: int
    duration_target_s: float
    elapsed_s: float
    txns_per_s: float
    mean_batch_size: float
    max_batch_size: int
    batches: int
    syncs_per_txn: float
    counter_advances_per_txn: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    batch_size_histogram: Dict[str, int] = field(default_factory=dict)
    errors: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "transactions": self.transactions,
            "warmup_txns": self.warmup_txns,
            "duration_target_s": self.duration_target_s,
            "elapsed_s": round(self.elapsed_s, 3),
            "txns_per_s": round(self.txns_per_s, 1),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "max_batch_size": self.max_batch_size,
            "batches": self.batches,
            "syncs_per_txn": round(self.syncs_per_txn, 3),
            "counter_advances_per_txn": round(self.counter_advances_per_txn, 3),
            "latency_mean_ms": round(self.latency_mean_ms, 3),
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p95_ms": round(self.latency_p95_ms, 3),
            "batch_size_histogram": self.batch_size_histogram,
            "errors": self.errors,
        }


def _drive_clients(
    address,
    clients: int,
    warmup_txns: int,
    duration_s: float,
    payload_fields: int,
):
    """The measured phase: every client loops until the deadline."""
    host, port = address
    payload = {f"field{i}": "x" * 16 for i in range(payload_fields)}
    latency = LatencyStats()
    latency_lock = threading.Lock()
    errors: List[Exception] = []
    # +1: the main thread joins both barriers to take clean timestamps.
    warm_barrier = threading.Barrier(clients + 1)
    start_barrier = threading.Barrier(clients + 1)
    stop_at = [0.0]  # set by the main thread at the start barrier

    def client_thread(index: int) -> None:
        try:
            with TdbClient(host, port, timeout=60) as client:
                for n in range(warmup_txns):
                    client.run_transaction(
                        lambda txn: txn.put(dict(payload, warm=index, n=n)),
                        attempts=10,
                    )
                warm_barrier.wait()
                start_barrier.wait()
                n = 0
                while time.monotonic() < stop_at[0]:
                    n += 1
                    started = time.monotonic()
                    client.run_transaction(
                        lambda txn: txn.put(dict(payload, client=index, n=n)),
                        attempts=10,
                    )
                    with latency_lock:
                        latency.record(time.monotonic() - started)
        except Exception as exc:  # noqa: BLE001 — tallied, not fatal
            errors.append(exc)
            # Unblock the barriers so one failed client cannot hang the run.
            for barrier in (warm_barrier, start_barrier):
                try:
                    barrier.wait(timeout=0.1)
                except threading.BrokenBarrierError:
                    pass

    threads = [
        threading.Thread(target=client_thread, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    warm_barrier.wait()
    stop_at[0] = time.monotonic() + duration_s
    start_barrier.wait()
    started = time.monotonic()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return latency, elapsed, errors


def run_server_load(
    clients: int = 8,
    warmup_txns: int = 5,
    duration_s: float = 2.0,
    payload_fields: int = 4,
    directory: Optional[str] = None,
) -> ServerLoadResult:
    """Run one load point and return its measurements.

    The store is file-backed under ``directory`` (a fresh temporary
    directory by default) and served by one :class:`TdbServer` with
    group commit.
    """
    own_dir = directory is None
    root = directory or tempfile.mkdtemp(prefix="tdb-bench-")
    backpressure = BackpressureConfig(
        max_sessions=max(64, clients + 8), idle_timeout=120.0,
        request_timeout=60.0,
    )
    try:
        db = Database.create(
            os.path.join(root, "db"),
            chunk_config=ChunkStoreConfig(fsync=True),
        )
        server = TdbServer(db, backpressure=backpressure).start()
        io_before = db.io_stats().snapshot()
        counter_before = db.stats().counter_value
        gc_before = db.group_commit.stats_snapshot()

        latency, elapsed, errors = _drive_clients(
            server.address, clients, warmup_txns, duration_s, payload_fields
        )
        transactions = latency.count

        gc_after = db.group_commit.stats_snapshot()
        requests = gc_after.requests - gc_before.requests
        batches = gc_after.batches - gc_before.batches
        histogram = {
            str(k): v - gc_before.batch_sizes.get(k, 0)
            for k, v in sorted(gc_after.batch_sizes.items())
            if v - gc_before.batch_sizes.get(k, 0) > 0
        }
        syncs = db.io_stats().delta_since(io_before).sync_calls
        counter_delta = db.stats().counter_value - counter_before
        server.stop()
        db.close()
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    return ServerLoadResult(
        clients=clients,
        transactions=transactions,
        warmup_txns=warmup_txns,
        duration_target_s=duration_s,
        elapsed_s=elapsed,
        txns_per_s=transactions / elapsed if elapsed > 0 else 0.0,
        mean_batch_size=requests / batches if batches else 0.0,
        max_batch_size=gc_after.max_batch_size,
        batches=batches,
        syncs_per_txn=syncs / transactions if transactions else 0.0,
        counter_advances_per_txn=(
            counter_delta / transactions if transactions else 0.0
        ),
        latency_mean_ms=latency.mean,
        latency_p50_ms=latency.percentile(0.50),
        latency_p95_ms=latency.percentile(0.95),
        batch_size_histogram=histogram,
        errors=len(errors),
    )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--warmup-txns", type=int, default=5)
    parser.add_argument("--duration", type=float, default=2.0)
    args = parser.parse_args(argv)
    result = run_server_load(
        clients=args.clients,
        warmup_txns=args.warmup_txns,
        duration_s=args.duration,
    )
    print(json.dumps(result.as_dict(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
