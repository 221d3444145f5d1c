"""Proof-path benchmark: proofs per second and proof size vs store size.

For several in-memory store sizes this measures, over the embedded
proof path (:class:`repro.proofs.service.ProofService` +
:func:`repro.proofs.merkle.verify_proof`):

* ``prove_per_s``   — inclusion proofs generated per second,
* ``verify_per_s``  — client-side verifications per second,
* ``absent_per_s``  — non-membership proofs per second,
* ``proof_bytes``   — mean serialized proof size (nodes + payload),
* ``proof_nodes``   — mean Merkle path length,

and writes ``BENCH_proofs.json`` next to the repository root — the
non-gating CI artifact.  The interesting shape: proof size grows with
the map depth (logarithmically in store size), not with the store.

Run directly (``python benchmarks/bench_proofs.py``) or via pytest
(``pytest benchmarks/bench_proofs.py -q``).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig
from repro.crypto import create_hash_engine, create_payload_cipher
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)
from repro.proofs import ProofService, verify_proof

STORE_SIZES = (64, 512, 4096)
PROOFS_PER_POINT = 300
PAYLOAD_BYTES = 256
SECRET = b"bench-proofs-secret-0123456789ab"
OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_proofs.json"
)


def _build_store(chunks: int):
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(SECRET)
    counter = MemoryOneWayCounter()
    store = ChunkStore.format(untrusted, secret, counter)
    payload = b"p" * PAYLOAD_BYTES
    ids = []
    for _ in range(chunks):
        cid = store.allocate_chunk_id()
        store.write(cid, payload, durable=False)
        ids.append(cid)
    store.checkpoint(force=True)
    return store, secret, ids


def _proof_bytes(proof) -> int:
    size = sum(len(node) for node in proof.nodes)
    if proof.payload is not None:
        size += len(proof.payload)
    return size


def bench_point(chunks: int, proofs: int = PROOFS_PER_POINT) -> dict:
    store, secret, ids = _build_store(chunks)
    config = ChunkStoreConfig()
    profile = config.security
    engine = create_hash_engine(profile.hash_name)
    cipher = create_payload_cipher(
        profile.cipher_name,
        secret.derive_key("tdb-chunk-encryption", 32),
    )
    service = ProofService(store)
    targets = [ids[i * len(ids) // proofs] for i in range(proofs)]

    start = time.perf_counter()
    proved = [service.prove(cid) for cid in targets]
    prove_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for head, proof in proved:
        verify_proof(
            proof,
            head,
            fanout=config.map_fanout,
            hash_size=engine.digest_size,
            digest=engine.digest,
            decrypt=cipher.decrypt,
        )
    verify_elapsed = time.perf_counter() - start

    absent_ids = [max(ids) + 1 + i for i in range(proofs)]
    start = time.perf_counter()
    for cid in absent_ids:
        service.prove(cid)
    absent_elapsed = time.perf_counter() - start

    sizes = [_proof_bytes(proof) for _, proof in proved]
    depths = [len(proof.nodes) for _, proof in proved]
    point = {
        "chunks": chunks,
        "proofs": proofs,
        "prove_per_s": round(proofs / max(prove_elapsed, 1e-9), 1),
        "verify_per_s": round(proofs / max(verify_elapsed, 1e-9), 1),
        "absent_per_s": round(proofs / max(absent_elapsed, 1e-9), 1),
        "proof_bytes": round(sum(sizes) / len(sizes), 1),
        "proof_nodes": round(sum(depths) / len(depths), 2),
        "head_bytes": len(proved[0][0].raw),
    }
    service.close()
    store.close()
    return point


def run_points(proofs: int = PROOFS_PER_POINT):
    return {str(size): bench_point(size, proofs) for size in STORE_SIZES}


def write_report(results, path: str = OUTPUT) -> None:
    with open(path, "w") as handle:
        json.dump({"proofs": results}, handle, indent=2)
        handle.write("\n")


def test_proof_bench_smoke():
    """Smoke gate: every point completes and proof size stays modest."""
    results = run_points(proofs=40)
    for size, point in results.items():
        assert point["prove_per_s"] > 0
        assert point["verify_per_s"] > 0
        # Proofs must scale with depth, not store size.
        assert point["proof_bytes"] < 64 * 1024, point
    assert (
        results[str(STORE_SIZES[-1])]["proof_nodes"]
        >= results[str(STORE_SIZES[0])]["proof_nodes"]
    )
    write_report(results)


if __name__ == "__main__":
    report = run_points()
    write_report(report)
    json.dump({"proofs": report}, sys.stdout, indent=2)
