"""Client-verifiable proofs and the transparency log (``repro.proofs``).

The location map already *is* a Merkle tree rooted in the MAC'd master
record; this package turns that fact into something clients can use
without trusting the server:

* :mod:`repro.proofs.headlog` — the append-only, hash-chained log of
  signed commit heads (HMAC always, Ed25519 when available);
* :mod:`repro.proofs.merkle` — inclusion and non-membership proofs
  built from and verified against the map's own node payloads;
* :mod:`repro.proofs.service` — server-side proof generation over
  pinned snapshots (``ChunkStore.snapshot()``, the same pin replication
  shipping and backups take);
* :mod:`repro.proofs.client` — :class:`VerifyingClient`, the thin
  client that checks every read and refuses rollbacks and forks.

The chunk store imports :mod:`repro.proofs.headlog` (every checkpoint
signs a head), and importing a submodule runs this ``__init__`` first.
So only ``headlog`` is imported eagerly here; ``merkle``, ``service``
and ``client`` load on first attribute access, which keeps them out of
the chunk store's trusted core.
"""

import importlib

from repro.proofs.headlog import (
    HAVE_ED25519,
    HEAD_LOG_FILE,
    HeadVerifier,
    SignedHead,
    TransparencyLog,
)

__all__ = [
    "HAVE_ED25519",
    "HEAD_LOG_FILE",
    "HeadVerifier",
    "SignedHead",
    "TransparencyLog",
    "ChunkProof",
    "build_proof",
    "verify_proof",
    "ProofService",
    "VerifyingClient",
]


_LAZY = {
    "ChunkProof": "repro.proofs.merkle",
    "build_proof": "repro.proofs.merkle",
    "verify_proof": "repro.proofs.merkle",
    "ProofService": "repro.proofs.service",
    "VerifyingClient": "repro.proofs.client",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
