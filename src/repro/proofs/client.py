"""The thin verifying client: trust the math, not the server.

:class:`VerifyingClient` wraps a :class:`~repro.server.client.TdbClient`
connection with end-to-end verification.  It holds the device secret
and the store configuration (fanout, hash, cipher) — in TDB's model the
client *is* the trusted device; the server, the storage under it, and
the network in between are not.

Every response that names a signed commit head goes through
:func:`reconcile_heads` against the client's *pinned* head (the newest
it has ever verified).  The same function reconciles the replica
applier's mirrored log and ``tools audit --primary``'s local log with
the chain a server serves.

Reads and absence checks then verify a Merkle proof against the
reconciled head (:mod:`repro.proofs.merkle`), so a tampered payload,
a forged absence, or a stale tree all fail with a typed error.
"""

from __future__ import annotations

import base64
from typing import Callable, List, Optional, Tuple

from repro.config import ChunkStoreConfig
from repro.crypto import create_hash_engine, create_payload_cipher
from repro.errors import (
    ChunkNotFoundError,
    ForkDetectedError,
    InvalidProofError,
    ProofError,
    RollbackDetectedError,
    TamperDetectedError,
)
from repro.server.client import TdbClient

from repro.proofs.headlog import HeadVerifier, SignedHead
from repro.proofs.merkle import ChunkProof, verify_proof

__all__ = ["VerifyingClient", "reconcile_heads"]


def reconcile_heads(
    verifier: HeadVerifier,
    pin: Optional[SignedHead],
    raw: bytes,
    fetch: Callable[[int, int], List[bytes]],
) -> Tuple[SignedHead, List[SignedHead]]:
    """Place the served head ``raw`` on the chain that ends at ``pin``.

    ``fetch(lo, hi)`` returns the served raw entries ``lo..hi``
    inclusive (the ``log.consistency`` verb).  Returns the verified
    served head and the verified heads past the pin, oldest first:

    * first contact (no pin) — the chain from genesis to the served head;
    * same index — none; the bytes must equal the pin's, anything else
      is equivocation (:class:`ForkDetectedError`);
    * newer index — the range from the pin, which must start at the
      pin's bytes (else :class:`ForkDetectedError`) and chain to the
      served head;
    * older index — none; the server must prove the served head is an
      ancestor of the pin, and one that cannot (its log was cut back to
      an older state) is rolled back (:class:`RollbackDetectedError`).

    Anything that does not verify raises :class:`TamperDetectedError`.
    """
    head = verifier.verify_signature(raw)
    if pin is None:
        chain = verifier.verify_chain(fetch(0, head.index))
    elif head.index > pin.index:
        entries = fetch(pin.index, head.index)
        if not entries or entries[0] != pin.raw:
            raise ForkDetectedError(
                "consistency range does not start at the pinned head: "
                "the log was rewritten"
            )
        chain = verifier.verify_chain(entries[1:], after=pin)
    elif head.index == pin.index:
        if raw != pin.raw:
            raise ForkDetectedError(
                f"server signed a different head at index {head.index} "
                "than the one already verified"
            )
        return head, []
    else:
        try:
            entries = fetch(head.index, pin.index)
        except ProofError as exc:
            raise RollbackDetectedError(
                f"server presented head #{head.index} below the pinned "
                f"#{pin.index} and cannot produce the chain between them: {exc}"
            ) from exc
        if not entries or entries[0] != raw:
            raise ForkDetectedError(
                f"server's head #{head.index} is not the one on the pinned chain"
            )
        chain = verifier.verify_chain(entries[1:], after=head)
        if not chain or chain[-1].raw != pin.raw:
            raise RollbackDetectedError(
                "server's chain from its head does not reach the pinned head: "
                "rollback"
            )
        return head, []
    if not chain or chain[-1].raw != raw:
        raise TamperDetectedError("head chain does not end at the served head")
    return head, chain


class VerifyingClient:
    """Verified reads, absence checks, and head auditing over the wire."""

    def __init__(
        self,
        host: str,
        port: int,
        secret_store,
        config: Optional[ChunkStoreConfig] = None,
        client: Optional[TdbClient] = None,
        **client_kwargs,
    ) -> None:
        self.config = config or ChunkStoreConfig()
        profile = self.config.security
        if not profile.enabled:
            raise ProofError(
                "a verifying client needs the secure profile's digests"
            )
        self.secret_store = secret_store
        self.client = client or TdbClient(host, port, **client_kwargs)
        self._hash_engine = create_hash_engine(profile.hash_name)
        self._cipher = create_payload_cipher(
            profile.cipher_name,
            secret_store.derive_key("tdb-chunk-encryption", 32),
        )
        self.db_uuid: Optional[bytes] = None  # trust-on-first-use identity
        self._verifier: Optional[HeadVerifier] = None
        self.pinned: Optional[SignedHead] = None
        self.heads_verified = 0
        self.proofs_verified = 0

    # -- identity and head reconciliation ---------------------------------

    def _bind_identity(self, uuid_b64: str) -> HeadVerifier:
        uuid = base64.b64decode(uuid_b64)
        if self.db_uuid is None:
            self.db_uuid = uuid
        elif uuid != self.db_uuid:
            raise ForkDetectedError(
                "server serves a different database identity than the "
                "one already bound"
            )
        if self._verifier is None:
            self._verifier = HeadVerifier(
                self.secret_store, uuid, self._hash_engine.digest_size
            )
        return self._verifier

    def _consistency(self, lo: int, hi: int) -> List[bytes]:
        reply = self.client.call("log.consistency", from_index=lo, to_index=hi)
        self._bind_identity(reply["uuid"])
        return [base64.b64decode(entry) for entry in reply["entries"]]

    def _reconcile(self, verifier: HeadVerifier, raw: bytes) -> SignedHead:
        """Verify a served head and place it on the pinned chain."""
        try:
            head, fresh = reconcile_heads(
                verifier, self.pinned, raw, self._consistency
            )
        except TamperDetectedError as exc:
            raise InvalidProofError(f"served head does not verify: {exc}") from exc
        if fresh:
            self.pinned = fresh[-1]
        self.heads_verified += 1
        return head

    # -- verified operations ----------------------------------------------

    def latest_head(self) -> SignedHead:
        """Fetch, verify, and pin the server's newest signed head."""
        reply = self.client.call("log.head")
        verifier = self._bind_identity(reply["uuid"])
        return self._reconcile(verifier, base64.b64decode(reply["head"]))

    def _verified_proof(self, verb: str, chunk_id: int):
        reply = self.client.call(verb, chunk_id=chunk_id)
        verifier = self._bind_identity(reply["uuid"])
        head = self._reconcile(verifier, base64.b64decode(reply["head"]))
        proof = ChunkProof(
            chunk_id=int(reply["chunk_id"]),
            depth=int(reply["depth"]),
            present=bool(reply["present"]),
            nodes=[base64.b64decode(node) for node in reply["nodes"]],
            payload=(
                base64.b64decode(reply["payload"])
                if reply["payload"] is not None
                else None
            ),
        )
        if proof.chunk_id != chunk_id:
            raise InvalidProofError(
                f"asked for chunk {chunk_id}, proof covers {proof.chunk_id}"
            )
        plaintext = verify_proof(
            proof,
            head,
            fanout=self.config.map_fanout,
            hash_size=self._hash_engine.digest_size,
            digest=self._hash_engine.digest,
            decrypt=self._cipher.decrypt,
        )
        self.proofs_verified += 1
        return head, proof, plaintext

    def verified_read(self, chunk_id: int) -> bytes:
        """Read a chunk with an end-to-end verified inclusion proof.

        Raises :class:`ChunkNotFoundError` only after a *verified*
        non-membership proof — an unproven "not found" is an error.
        """
        _, proof, plaintext = self._verified_proof("proof.read", chunk_id)
        if not proof.present:
            raise ChunkNotFoundError(
                f"chunk {chunk_id} verifiably absent at the signed head"
            )
        return plaintext

    def verified_absent(self, chunk_id: int) -> bool:
        """Whether ``chunk_id`` is verifiably absent at the signed head."""
        _, proof, _ = self._verified_proof("proof.absent", chunk_id)
        return not proof.present

    # -- auditing ----------------------------------------------------------

    def fetch_log(self) -> List[SignedHead]:
        """Fetch and verify the server's entire head chain from genesis."""
        head = self.latest_head()
        _, chain = reconcile_heads(
            self._verifier, None, head.raw, self._consistency
        )
        return chain

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "VerifyingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
