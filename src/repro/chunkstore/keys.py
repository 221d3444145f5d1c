"""The chunk store's keys: everything it derives from the device secret.

The paper's trusted platform offers a secret store holding one device
key; the chunk store derives, under fixed labels, one key per job:

* ``tdb-chunk-encryption`` — the payload cipher (chunks and map nodes),
* ``tdb-log-mac`` — the tag on every residual-log record,
* ``tdb-master-mac`` — the MAC sealing the master record.

The Merkle hash engine needs no key.  With the insecure profile nothing
is derived: payloads pass through the null cipher and nothing is MACed.
The head log derives its own signing keys (:mod:`repro.proofs.headlog`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import SecurityProfile
from repro.crypto import (
    HashEngine,
    Hmac,
    InstrumentedHashEngine,
    InstrumentedPayloadCipher,
    PayloadCipher,
    create_hash_engine,
    create_mac,
    create_payload_cipher,
)
from repro.perf import PerfStats
from repro.platform.secret import SecretStore

__all__ = ["derive_store_keys"]


def derive_store_keys(
    security: SecurityProfile, secret_store: SecretStore, perf: PerfStats
) -> Tuple[Optional[HashEngine], PayloadCipher, Optional[Hmac], Optional[Hmac]]:
    """``(hash engine, payload cipher, record MAC, master MAC)``.

    The hash engine and cipher report their time to ``perf``.
    """
    if not security.enabled:
        return None, create_payload_cipher("null", b""), None, None
    hash_engine = InstrumentedHashEngine(
        create_hash_engine(security.hash_name), perf
    )
    cipher = InstrumentedPayloadCipher(
        create_payload_cipher(
            security.cipher_name,
            secret_store.derive_key("tdb-chunk-encryption", 32),
        ),
        perf,
    )
    record_mac = create_mac(
        secret_store.derive_key("tdb-log-mac", 32),
        security.hash_name if security.hash_name in ("sha1", "sha256") else "sha1",
    )
    master_mac = create_mac(secret_store.derive_key("tdb-master-mac", 32), "sha256")
    return hash_engine, cipher, record_mac, master_mac
