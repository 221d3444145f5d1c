"""Chunk-store hot-path bench on the platform's AES.

Write/read/scrub wall time of a 160-chunk store on the platform's AES
(OpenSSL where the cryptography package is importable, the table
kernels otherwise), plus the per-kernel cipher throughput the store's
``PerfStats`` recorded, written to ``BENCH_chunkstore.json``
(non-gating CI artifact).

Run directly (``python benchmarks/bench_chunkstore.py``) or via pytest
(``pytest benchmarks/bench_chunkstore.py -q``).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

CHUNKS = 160
CHUNK_BYTES = 2048
OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_chunkstore.json"
)


CONFIG = ChunkStoreConfig(segment_size=64 * 1024, initial_segments=4, map_fanout=16)


def _payloads():
    return {
        i: bytes((i * 31 + j) % 256 for j in range(CHUNK_BYTES))
        for i in range(CHUNKS)
    }


def bench_store_traffic():
    untrusted = MemoryUntrustedStore()
    store = ChunkStore.format(
        untrusted,
        MemorySecretStore(b"bench-chunkstore-secret-0123456x"),
        MemoryOneWayCounter(),
        CONFIG,
    )
    payloads = _payloads()
    ids = {i: store.allocate_chunk_id() for i in payloads}

    started = time.perf_counter()
    store.commit({ids[i]: data for i, data in payloads.items()}, durable=True)
    store.checkpoint(force=True)
    write_s = time.perf_counter() - started

    started = time.perf_counter()
    for i in payloads:
        store.read(ids[i])
    read_s = time.perf_counter() - started

    started = time.perf_counter()
    report = store.scrub()
    scrub_s = time.perf_counter() - started
    assert report.clean
    assert report.verified_chunks == CHUNKS

    kernels = store.perf.as_dict()["kernels"]
    store.close()
    return {
        "kernel": SecurityProfile().resolved_kernel,
        "chunks": CHUNKS,
        "chunk_bytes": CHUNK_BYTES,
        "write_ms": round(write_s * 1e3, 2),
        "read_ms": round(read_s * 1e3, 2),
        "scrub_ms": round(scrub_s * 1e3, 2),
        "cipher_mb_per_s": {
            name: counter["mb_per_s"]
            for name, counter in kernels.items()
            if name.startswith("cipher.")
        },
    }


def run_all():
    return {"store_traffic": bench_store_traffic()}


def write_report(results, path: str = OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump({"chunkstore": results}, handle, indent=2)
        handle.write("\n")


def test_chunkstore_bench_smoke():
    """Smoke gate: the store scrubs clean, every chunk verified."""
    write_report(run_all())


if __name__ == "__main__":
    report = run_all()
    write_report(report)
    json.dump({"chunkstore": report}, sys.stdout, indent=2)
