"""Primary-side shipment server: :class:`ReplicationShipper`.

The shipper owns one subscription per server session.  A subscription is
anchored in a pinned chunk-store snapshot
(:meth:`~repro.chunkstore.store.ChunkStore.begin_shipment`), which makes
the shipped byte ranges stable without holding any lock while streaming:

* the snapshot's ``pinned_segments`` stop the cleaner from recycling any
  shipped segment while a (possibly slow) replica is still fetching it,
* the anchoring checkpoint's segment table records each segment's size
  at that instant; sealed segments are immutable and the tail only ever
  *grows past* the recorded size, so ``[0, file_bytes)`` cannot change
  underneath the stream even while new commits land.

Re-subscribing acknowledges the previous shipment (its pins are
released) and either anchors a fresh one or — when the subscriber's
``(last_generation, last_seqno)`` is still current — answers
``up_to_date`` without burning a checkpoint.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, Optional

from repro.chunkstore import ChunkStore, ShipmentAnchor
from repro.errors import ReplicationError

__all__ = ["ReplicationShipper"]

#: Largest segment range served per ``repl.segments`` call.  Base64 in a
#: JSON frame expands 4/3x, so this stays comfortably under the 16 MiB
#: frame cap.
MAX_SHIP_BYTES = 4 * 1024 * 1024


class _Subscription:
    def __init__(self, anchor: ShipmentAnchor, manifest: Dict[str, Any]) -> None:
        self.anchor = anchor
        self.manifest = manifest
        self.extents = {
            info.number: info.file_bytes for info in anchor.segments
        }


class ReplicationShipper:
    """Serves shipment manifests and raw segment bytes to replicas."""

    def __init__(self, store: ChunkStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._subs: Dict[Any, _Subscription] = {}
        self._acked_seqno: Dict[Any, int] = {}
        self._shipments = 0
        self._up_to_date = 0
        self._segment_requests = 0
        self._bytes_streamed = 0

    # ------------------------------------------------------------------
    # Verb backends
    # ------------------------------------------------------------------

    def subscribe(
        self,
        session_id: Any,
        last_generation: Optional[int] = None,
        last_seqno: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Anchor a shipment for ``session_id``; returns the manifest.

        Passing the previously applied ``(last_generation, last_seqno)``
        acknowledges that shipment: its snapshot pins are dropped either
        way, and if the primary has not committed since, the reply is
        ``{"up_to_date": true}`` with no new anchor.
        """
        anchor = self.store.begin_shipment(last_generation, last_seqno)
        with self._lock:
            previous = self._subs.pop(session_id, None)
            if last_seqno is not None:
                self._acked_seqno[session_id] = last_seqno
            if anchor is None:
                self._up_to_date += 1
                manifest: Dict[str, Any] = {
                    "up_to_date": True,
                    "generation": last_generation,
                    "commit_seqno": last_seqno,
                }
            else:
                manifest = self._build_manifest(anchor)
                self._subs[session_id] = _Subscription(anchor, manifest)
                self._shipments += 1
        if previous is not None:
            previous.anchor.snapshot.release()
        return manifest

    def _build_manifest(self, anchor: ShipmentAnchor) -> Dict[str, Any]:
        segments = []
        for info in anchor.segments:
            # Hashing happens outside the store lock: the range below
            # the recorded size is immutable (see module docstring).
            data = self.store.read_segment_bytes(info.number, 0, info.file_bytes)
            if len(data) != info.file_bytes:
                raise ReplicationError(
                    f"segment {info.number} shrank below its anchored size"
                )
            segments.append(
                {
                    "number": info.number,
                    "file_bytes": info.file_bytes,
                    "is_tail": info.is_tail,
                    "digest": hashlib.sha256(data).hexdigest(),
                }
            )
        return {
            "up_to_date": False,
            "db_uuid": anchor.db_uuid.hex(),
            "generation": anchor.generation,
            "commit_seqno": anchor.commit_seqno,
            "expected_counter": anchor.expected_counter,
            "master_name": anchor.master_name,
            "master_bytes": len(anchor.master_blob),
            "segments": segments,
        }

    def read_segment(
        self, session_id: Any, segment: int, offset: int, length: int
    ) -> bytes:
        """Raw bytes of a shipped segment, clipped to the anchored size."""
        with self._lock:
            sub = self._subs.get(session_id)
            if sub is None:
                raise ReplicationError("no active shipment; subscribe first")
            extent = sub.extents.get(segment)
        if extent is None:
            raise ReplicationError(f"segment {segment} is not in the shipment")
        if offset < 0 or length < 0:
            raise ReplicationError("negative segment range")
        if length > MAX_SHIP_BYTES:
            raise ReplicationError(
                f"requested {length} bytes; limit is {MAX_SHIP_BYTES} per call"
            )
        end = min(offset + length, extent)
        data = (
            self.store.read_segment_bytes(segment, offset, end - offset)
            if end > offset
            else b""
        )
        with self._lock:
            self._segment_requests += 1
            self._bytes_streamed += len(data)
        return data

    def master_blob(self, session_id: Any) -> Dict[str, Any]:
        """The sealed master record captured when the shipment was anchored.

        Served from the anchor, not from disk: two checkpoints after the
        anchor the alternating-slot scheme overwrites the same file.
        """
        with self._lock:
            sub = self._subs.get(session_id)
            if sub is None:
                raise ReplicationError("no active shipment; subscribe first")
            blob = sub.anchor.master_blob
            self._bytes_streamed += len(blob)
        return {"name": sub.anchor.master_name, "blob": blob}

    # ------------------------------------------------------------------
    # Lifecycle / stats
    # ------------------------------------------------------------------

    def release(self, session_id: Any) -> None:
        """Drop a session's shipment (disconnect); releases its pins."""
        with self._lock:
            sub = self._subs.pop(session_id, None)
            self._acked_seqno.pop(session_id, None)
        if sub is not None:
            sub.anchor.snapshot.release()

    def close(self) -> None:
        with self._lock:
            subs = list(self._subs.values())
            self._subs.clear()
            self._acked_seqno.clear()
        for sub in subs:
            sub.anchor.snapshot.release()

    def stats_snapshot(self) -> Dict[str, Any]:
        """Replication counters plus per-subscriber lag in commit seqnos."""
        current = self.store.commit_seqno
        with self._lock:
            in_flight = {
                # A shipment in flight is acknowledged up to its own seqno
                # only once applied; until then the subscriber's floor is
                # its last ack (0 for a first-time subscriber).
                session_id: sub.manifest["commit_seqno"]
                for session_id, sub in self._subs.items()
            }
            acked = dict(self._acked_seqno)
            floors = [
                min(acked.get(sid, 0), in_flight.get(sid, current))
                if sid in acked or sid in in_flight
                else 0
                for sid in set(acked) | set(in_flight)
            ]
            return {
                "subscribers": len(set(acked) | set(in_flight)),
                "shipments": self._shipments,
                "up_to_date_replies": self._up_to_date,
                "segment_requests": self._segment_requests,
                "bytes_streamed": self._bytes_streamed,
                "commit_seqno": current,
                "max_lag_seqno": max(
                    (current - floor for floor in floors), default=0
                ),
            }
