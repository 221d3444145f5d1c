"""Chunk-store hot-path bench: the platform's AES and the digest memo.

Two measurements, written to ``BENCH_chunkstore.json`` (non-gating CI
artifact):

* write/read/deep-scrub wall time on the platform's AES (OpenSSL where
  the cryptography package is importable, the table kernels otherwise);
* deep vs incremental scrub on an unchanged store, with the
  ``payload_digests`` counter proving the incremental pass re-hashed
  nothing and the memo hit-rate showing why.

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
    report = store.scrub()  # deep
    scrub_s = time.perf_counter() - started
    assert report.clean

    kernels = store.perf.as_dict()["kernels"]
    store.close()
    return {
        "kernel": SecurityProfile().resolved_kernel,
        "chunks": CHUNKS,
        "chunk_bytes": CHUNK_BYTES,
        "write_ms": round(write_s * 1e3, 2),
        "read_ms": round(read_s * 1e3, 2),
        "deep_scrub_ms": round(scrub_s * 1e3, 2),
        "cipher_mb_per_s": {
            name: counter["mb_per_s"]
            for name, counter in kernels.items()
            if name.startswith("cipher.")
        },
    }


def bench_digest_memo():
    untrusted = MemoryUntrustedStore()
    store = ChunkStore.format(
        untrusted,
        MemorySecretStore(b"bench-chunkstore-secret-0123456x"),
        MemoryOneWayCounter(),
        CONFIG,
    )
    payloads = _payloads()
    ids = {i: store.allocate_chunk_id() for i in payloads}
    store.commit({ids[i]: data for i, data in payloads.items()}, durable=True)
    store.checkpoint(force=True)

    started = time.perf_counter()
    deep = store.scrub(deep=True)
    deep_s = time.perf_counter() - started
    assert deep.clean

    digests_before = store.perf.counter("payload_digests")
    started = time.perf_counter()
    incremental = store.scrub(deep=False)
    incremental_s = time.perf_counter() - started
    rehashes = store.perf.counter("payload_digests") - digests_before
    assert incremental.clean

    memo = store.perf.as_dict()["digest_memo"]
    store.close()
    return {
        "chunks": CHUNKS,
        "deep_scrub_ms": round(deep_s * 1e3, 2),
        "incremental_scrub_ms": round(incremental_s * 1e3, 2),
        "incremental_rehashes": rehashes,
        "memo_skipped_chunks": incremental.memo_skipped_chunks,
        "memo_skipped_nodes": incremental.memo_skipped_nodes,
        "memo_hit_rate": memo["hit_rate"],
        "speedup": round(deep_s / incremental_s, 2) if incremental_s else None,
    }


def run_all():
    return {
        "store_traffic": bench_store_traffic(),
        "digest_memo": bench_digest_memo(),
    }


def write_report(results, path: str = OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump({"chunkstore": results}, handle, indent=2)
        handle.write("\n")


def test_chunkstore_bench_smoke():
    """Smoke gate: the store scrubs clean; incremental re-hashes 0."""
    results = run_all()
    memo = results["digest_memo"]
    assert memo["incremental_rehashes"] == 0, memo
    assert memo["memo_skipped_chunks"] == CHUNKS
    write_report(results)


if __name__ == "__main__":
    report = run_all()
    write_report(report)
    json.dump({"chunkstore": report}, sys.stdout, indent=2)
