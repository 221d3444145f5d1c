"""Client-verifiable proofs and the transparency log (``repro.proofs``).

The location map already *is* a Merkle tree rooted in the MAC'd master
record; this package turns that fact into something clients can use
without trusting the server:

* :mod:`repro.proofs.headlog` — the append-only, hash-chained log of
  signed commit heads (HMAC always, Ed25519 when available);
* :mod:`repro.proofs.merkle` — inclusion and non-membership proofs
  built from and verified against the map's own node payloads;
* :mod:`repro.proofs.service` — server-side proof generation over
  pinned snapshots (shared with the replication shipper's pins);
* :mod:`repro.proofs.client` — :class:`VerifyingClient`, the thin
  client that checks every read and refuses rollbacks and forks.
"""

from repro.proofs.headlog import (
    HAVE_ED25519,
    HEAD_LOG_FILE,
    HeadVerifier,
    SignedHead,
    TransparencyLog,
)
from repro.proofs.merkle import ChunkProof, build_proof, verify_proof
from repro.proofs.service import ProofService

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


def __getattr__(name):
    # VerifyingClient pulls in the server package; import it lazily so
    # `repro.chunkstore` → `repro.proofs.headlog` stays cycle-free.
    if name == "VerifyingClient":
        from repro.proofs.client import VerifyingClient

        return VerifyingClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
