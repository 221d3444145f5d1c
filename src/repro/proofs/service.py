"""Server-side proof generation against pinned snapshots.

The service answers four questions — inclusion proof, non-membership
proof, current signed head, and head-log consistency range — for one
:class:`~repro.chunkstore.store.ChunkStore`.

Proofs must be *stable*: the cleaner relocates payloads and concurrent
commits advance the root, so walking the live tree would hand clients
paths that stop verifying mid-flight.  On a primary the service anchors
itself with the pin replication shipping and backups use
(:meth:`ChunkStore.snapshot`): a forced checkpoint plus a pinned
snapshot freezes a ``(generation, root, depth)`` triple whose segments
the cleaner will not touch, and — because the checkpoint appended a
head — the log's tip signs exactly that root.  The anchor is re-taken
only when commits actually advanced the store, so back-to-back proof
requests reuse one pin.

On a read-only store (replica) nothing moves between applier installs,
so the service reads the live root directly; it refuses to serve while
the mirrored head log has not caught up to the installed image.
"""

from __future__ import annotations

import threading
from typing import List, Tuple

from repro.errors import ProofError
from repro.proofs.headlog import SignedHead
from repro.proofs.merkle import ChunkProof, build_proof

__all__ = ["ProofService"]


class ProofService:
    """Generates proofs and serves the transparency log for one store."""

    def __init__(self, store) -> None:
        if not store.secure:
            raise ProofError(
                "proofs need the secure profile: an insecure store has "
                "no digests to prove against"
            )
        self.store = store
        self._lock = threading.Lock()
        self._anchor = None  # primary mode: the Snapshot proofs are built on
        self.proofs_served = 0
        self.absences_served = 0
        self.anchors_created = 0
        self.heads_served = 0
        self.consistency_served = 0
        self._closed = False

    # -- anchoring ---------------------------------------------------------

    def _anchored_state(self) -> Tuple[SignedHead, object, int]:
        """``(signed head, root locator, depth)`` of a stable tree.

        Primary: re-pin when the store moved since the current pin.
        Replica / read-only: the live root is already frozen between
        applier installs; require the mirrored log to agree with it.
        """
        store = self.store
        if store.read_only or store.salvage:
            with store._lock:
                log = store.transparency
                tip = log.tip() if log is not None else None
                if tip is None or tip.generation != store._generation:
                    raise ProofError(
                        "replica head log has not caught up with the "
                        "installed image; retry after the next sync"
                    )
                return tip, store.location_map.root_locator, store.location_map.depth
        with self._lock:
            if self._closed:
                raise ProofError("proof service is closed")
            anchor = self._anchor
            # Generation first, then seqno: both only grow, so a match
            # means nothing committed since the pin was taken.
            current = (store.generation, store.commit_seqno)
            if anchor is None or (anchor.generation, anchor.commit_seqno) != current:
                fresh = store.snapshot()
                if anchor is not None:
                    anchor.release()
                self._anchor = anchor = fresh
                self.anchors_created += 1
            # Concurrent commits may have checkpointed again since the
            # anchor was taken; the log is append-only, so the entry for
            # the anchored generation is still there and still signs
            # exactly the pinned root.
            head = store.transparency.entry_for_generation(anchor.generation)
            if head is None:
                raise ProofError(
                    "head log has no entry for the anchored generation"
                )
            return head, anchor.map.root_locator, anchor.map.depth

    # -- proofs ------------------------------------------------------------

    def prove(self, chunk_id: int) -> Tuple[SignedHead, ChunkProof]:
        """Inclusion or non-membership proof for ``chunk_id``."""
        head, root, depth = self._anchored_state()
        proof = build_proof(
            chunk_id=chunk_id,
            depth=depth,
            fanout=self.store.config.map_fanout,
            hash_size=self.store.hash_size,
            root_locator=root,
            read_ciphertext=self.store.read_payload_raw,
            decrypt=self.store.cipher.decrypt,
        )
        with self._lock:
            if proof.present:
                self.proofs_served += 1
            else:
                self.absences_served += 1
        return head, proof

    # -- transparency log --------------------------------------------------

    def head(self) -> Tuple[SignedHead, int]:
        """The newest signed head and the log length.

        Serves the log tip directly — the tip always signs the last
        checkpointed state, so no pin is needed, and (unlike the
        anchored path) this never forces a checkpoint: the replica
        applier polls it on every sync and must not advance the
        primary's generation by doing so.
        """
        store = self.store
        log = store.transparency
        if log is None:
            raise ProofError("store has no transparency log")
        if store.read_only or store.salvage:
            with store._lock:
                tip = log.tip()
                if tip is None or tip.generation != store._generation:
                    raise ProofError(
                        "replica head log has not caught up with the "
                        "installed image; retry after the next sync"
                    )
        else:
            tip = log.tip()
            if tip is None:
                raise ProofError("head log is empty")
        with self._lock:
            self.heads_served += 1
        return tip, len(log)

    def consistency(self, from_index: int, to_index: int) -> List[bytes]:
        """Raw head entries ``from_index..to_index`` inclusive."""
        log = self.store.transparency
        if log is None:
            raise ProofError("store has no transparency log")
        try:
            entries = log.entries_raw(from_index, to_index)
        except Exception as exc:
            raise ProofError(str(exc)) from exc
        with self._lock:
            self.consistency_served += 1
        return entries

    # -- lifecycle ---------------------------------------------------------

    def stats_snapshot(self) -> dict:
        with self._lock:
            return {
                "proofs_served": self.proofs_served,
                "absences_served": self.absences_served,
                "anchors_created": self.anchors_created,
                "heads_served": self.heads_served,
                "consistency_served": self.consistency_served,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            anchor, self._anchor = self._anchor, None
        if anchor is not None:
            anchor.release()
