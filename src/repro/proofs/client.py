"""The thin verifying client: trust the math, not the server.

:class:`VerifyingClient` wraps a :class:`~repro.server.client.TdbClient`
connection with end-to-end verification.  It holds the device secret
and the store configuration (fanout, hash, cipher) — in TDB's model the
client *is* the trusted device; the server, the storage under it, and
the network in between are not.

Every response that names a signed commit head goes through one
reconciliation step against the client's *pinned* head (the newest it
has ever verified):

* first contact — fetch the full head chain and verify it from the
  per-database genesis before trusting anything;
* same index — the raw bytes must match the pin exactly, anything else
  is equivocation (:class:`~repro.errors.ForkDetectedError`);
* newer index — fetch the consistency range from the pin, verify the
  chain extends it, advance the pin;
* older index — the server must *prove ancestry* by producing the chain
  from that head up to the pin; a server that cannot (because its log
  was truncated to an older state) is rolled back
  (:class:`~repro.errors.RollbackDetectedError`).

Reads and absence checks then verify a Merkle proof against the
reconciled head (:mod:`repro.proofs.merkle`), so a tampered payload,
a forged absence, or a stale tree all fail with a typed error.
"""

from __future__ import annotations

import base64
from typing import List, Optional

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

__all__ = ["VerifyingClient"]


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
            self._verifier = HeadVerifier(
                self.secret_store, uuid, self._hash_engine.digest_size
            )
        elif uuid != self.db_uuid:
            raise ForkDetectedError(
                "server changed its database identity mid-session"
            )
        return self._verifier

    def _consistency(self, lo: int, hi: int) -> List[bytes]:
        reply = self.client.call("log.consistency", from_index=lo, to_index=hi)
        self._bind_identity(reply["uuid"])
        return [base64.b64decode(entry) for entry in reply["entries"]]

    def _reconcile(self, verifier: HeadVerifier, raw: bytes) -> SignedHead:
        """Verify a served head and place it on the pinned chain."""
        try:
            head = verifier.verify_signature(raw)
        except TamperDetectedError as exc:
            raise InvalidProofError(f"served head does not verify: {exc}") from exc
        pin = self.pinned
        try:
            if pin is None:
                chain = verifier.verify_chain(
                    self._consistency(0, head.index), after=None
                )
                if not chain or chain[-1].raw != raw:
                    raise InvalidProofError(
                        "head chain from genesis does not end at the "
                        "served head"
                    )
                self.pinned = head
            elif head.index == pin.index:
                if raw != pin.raw:
                    raise ForkDetectedError(
                        f"server signed a different head at index "
                        f"{head.index} than the one already verified"
                    )
            elif head.index > pin.index:
                entries = self._consistency(pin.index, head.index)
                if not entries or entries[0] != pin.raw:
                    raise ForkDetectedError(
                        "consistency range does not start at the pinned "
                        "head: the log was rewritten"
                    )
                chain = verifier.verify_chain(entries[1:], after=pin)
                if not chain or chain[-1].raw != raw:
                    raise InvalidProofError(
                        "consistency range does not end at the served head"
                    )
                self.pinned = head
            else:
                # Older head: the server must prove it is an ancestor of
                # the pin.  A rolled-back server has no such chain.
                try:
                    entries = self._consistency(head.index, pin.index)
                except ProofError as exc:
                    raise RollbackDetectedError(
                        f"server presented head #{head.index} below the "
                        f"pinned #{pin.index} and cannot produce the "
                        f"chain between them: {exc}"
                    ) from exc
                if not entries or entries[0] != raw:
                    raise ForkDetectedError(
                        f"server's head #{head.index} is not the one on "
                        "the pinned chain"
                    )
                chain = verifier.verify_chain(entries[1:], after=head)
                if not chain or chain[-1].raw != pin.raw:
                    raise RollbackDetectedError(
                        "server's chain from its head does not reach the "
                        "pinned head: rollback"
                    )
        except TamperDetectedError as exc:
            raise InvalidProofError(f"head chain does not verify: {exc}") from exc
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
        verifier = self._verifier
        chain = verifier.verify_chain(
            self._consistency(0, head.index), after=None
        )
        if not chain or chain[-1].raw != head.raw:
            raise InvalidProofError(
                "full head chain does not end at the served head"
            )
        return chain

    @staticmethod
    def compare_logs(
        ours: List[SignedHead], theirs: List[SignedHead]
    ) -> Optional[int]:
        """First index where two verified chains diverge (gossip check).

        Returns ``None`` when one chain is a prefix of the other —
        honest lag.  A divergence means the signer equivocated; callers
        raise :class:`ForkDetectedError` with the returned index.
        """
        for ours_head, theirs_head in zip(ours, theirs):
            if ours_head.raw != theirs_head.raw:
                return ours_head.index
        return None

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "VerifyingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
