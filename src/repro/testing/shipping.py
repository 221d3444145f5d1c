"""In-flight shipment tampering: the attacker owns the wire.

PR 1's :class:`~repro.testing.tamper.TamperMatrix` attacks the media
under a store; this module attacks the *replication channel* between a
primary and a :class:`~repro.replication.ReplicaApplier`.  The applier
accepts any transport with ``call(op, **params)``, so the attacker is a
client wrapper:

* :class:`TamperingReplicationClient` — rewrites manifests, segment
  frames, and master frames in flight (corrupt, truncate, drop,
  reorder, counter/generation rewind, consistently forged digests),
* :class:`RecordingReplicationClient` / :class:`ReplayShipmentClient` —
  capture a complete legitimate shipment and replay it later, the
  channel-level analogue of the paper's image-replay attack,
* :class:`ShipmentTamperMatrix` — runs every tamper kind against a
  fresh replica and demands that each one is *rejected with an error*,
  never silently installed.

The matrix picks its corruption targets from the primary's own location
map, so "corrupt a sealed payload byte under a forged digest" really
lands on authenticated state and must be caught by the applier's deep
scrub — the one check that reads bytes ``ChunkStore.open`` never
touches.
"""

from __future__ import annotations

import base64
import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReplicationError, TDBError

__all__ = [
    "ShipmentTamper",
    "TamperingReplicationClient",
    "ShipmentRecording",
    "RecordingReplicationClient",
    "ReplayShipmentClient",
    "ShipmentCaseResult",
    "ShipmentTamperReport",
    "ShipmentTamperMatrix",
    "SHIPMENT_TAMPER_KINDS",
]

#: Every channel-attack family the matrix must exercise.
SHIPMENT_TAMPER_KINDS = (
    "corrupt-segment",
    "truncate-segment",
    "drop-segment",
    "reorder-segments",
    "forge-digest-payload",
    "corrupt-master",
    "truncate-master",
    "drop-master",
    "rewind-counter",
    "rewind-generation",
    "replay-shipment",
)


@dataclass
class ShipmentTamper:
    """One channel attack.

    ``target``/``partner`` are segment numbers; ``None`` targets the
    first sealed segment of the manifest (and the next one as partner).
    ``payload_offset`` positions single-byte corruption for the
    forged-digest attack.
    """

    kind: str
    target: Optional[int] = None
    partner: Optional[int] = None
    payload_offset: int = 0


class TamperingReplicationClient:
    """Transport wrapper applying one :class:`ShipmentTamper` in flight."""

    def __init__(self, inner, tamper: ShipmentTamper) -> None:
        self.inner = inner
        self.tamper = tamper
        self._manifest: Optional[Dict[str, Any]] = None
        self._swap: Dict[int, int] = {}
        self._forged: Dict[int, bytes] = {}

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------

    def call(self, op: str, **params) -> Dict[str, Any]:
        reply = self.inner.call(op, **params)
        if op == "repl.subscribe" and not reply.get("up_to_date"):
            reply = self._tamper_manifest(copy.deepcopy(reply))
            self._manifest = reply
        elif op == "repl.segments":
            reply = self._tamper_segment(params, dict(reply))
        elif op == "repl.master":
            reply = self._tamper_master(dict(reply))
        return reply

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_targets(self, manifest: Dict[str, Any]) -> Tuple[int, int]:
        entries = manifest["segments"]
        sealed = [e["number"] for e in entries if not e["is_tail"]]
        ordered = sealed + [e["number"] for e in entries if e["is_tail"]]
        target = self.tamper.target if self.tamper.target is not None else ordered[0]
        others = [n for n in ordered if n != target]
        partner = (
            self.tamper.partner
            if self.tamper.partner is not None
            else (others[0] if others else target)
        )
        return target, partner

    def _entry(self, manifest: Dict[str, Any], number: int) -> Dict[str, Any]:
        for entry in manifest["segments"]:
            if entry["number"] == number:
                return entry
        raise ReplicationError(f"segment {number} not in manifest")

    def _fetch_true_bytes(self, number: int, file_bytes: int) -> bytes:
        parts, cursor = [], 0
        while cursor < file_bytes:
            step = min(file_bytes - cursor, 4 * 1024 * 1024)
            reply = self.inner.call(
                "repl.segments", segment=number, offset=cursor, length=step
            )
            parts.append(base64.b64decode(reply["data"]))
            cursor += step
        return b"".join(parts)

    # ------------------------------------------------------------------
    # Tamper application
    # ------------------------------------------------------------------

    def _tamper_manifest(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        kind = self.tamper.kind
        target, partner = self._resolve_targets(manifest)
        if kind == "drop-segment":
            manifest["segments"] = [
                e for e in manifest["segments"] if e["number"] != target
            ]
        elif kind == "reorder-segments":
            a, b = self._entry(manifest, target), self._entry(manifest, partner)
            for key in ("file_bytes", "digest"):
                a[key], b[key] = b[key], a[key]
            self._swap = {target: partner, partner: target}
        elif kind == "forge-digest-payload":
            entry = self._entry(manifest, target)
            data = bytearray(self._fetch_true_bytes(target, entry["file_bytes"]))
            offset = min(self.tamper.payload_offset, len(data) - 1)
            data[offset] ^= 0xFF
            forged = bytes(data)
            entry["digest"] = hashlib.sha256(forged).hexdigest()
            self._forged[target] = forged
        elif kind == "rewind-counter":
            manifest["expected_counter"] = int(manifest["expected_counter"]) - 1
        elif kind == "rewind-generation":
            manifest["generation"] = int(manifest["generation"]) - 1
        elif kind == "truncate-master":
            manifest["master_bytes"] = int(manifest["master_bytes"]) - 1
        elif kind == "drop-master":
            manifest["master_bytes"] = 0
        return manifest

    def _tamper_segment(
        self, params: Dict[str, Any], reply: Dict[str, Any]
    ) -> Dict[str, Any]:
        kind = self.tamper.kind
        if self._manifest is None:
            return reply
        target, partner = self._resolve_targets(self._manifest)
        number = int(params["segment"])
        if kind == "corrupt-segment" and number == target:
            data = bytearray(base64.b64decode(reply["data"]))
            if data:
                data[len(data) // 2] ^= 0xFF
            reply["data"] = base64.b64encode(bytes(data)).decode("ascii")
        elif kind == "truncate-segment" and number == target:
            data = base64.b64decode(reply["data"])
            reply["data"] = base64.b64encode(data[:-1]).decode("ascii")
        elif kind == "reorder-segments" and number in self._swap:
            other = self._swap[number]
            swapped = self.inner.call(
                "repl.segments",
                segment=other,
                offset=int(params["offset"]),
                length=int(params["length"]),
            )
            reply["data"] = swapped["data"]
        elif kind == "forge-digest-payload" and number in self._forged:
            offset, length = int(params["offset"]), int(params["length"])
            chunk = self._forged[number][offset : offset + length]
            reply["data"] = base64.b64encode(chunk).decode("ascii")
        return reply

    def _tamper_master(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        kind = self.tamper.kind
        data = bytearray(base64.b64decode(reply["data"]))
        if kind == "corrupt-master" and data:
            data[len(data) // 2] ^= 0xFF
        elif kind == "truncate-master":
            data = data[:-1]
        elif kind == "drop-master":
            data = bytearray()
        reply["data"] = base64.b64encode(bytes(data)).decode("ascii")
        return reply


# ---------------------------------------------------------------------------
# Record / replay
# ---------------------------------------------------------------------------


@dataclass
class ShipmentRecording:
    """A captured shipment: every frame of one full sync."""

    manifest: Optional[Dict[str, Any]] = None
    segments: Dict[Tuple[int, int, int], Dict[str, Any]] = field(default_factory=dict)
    master: Optional[Dict[str, Any]] = None


class RecordingReplicationClient:
    """Pass-through transport that captures the shipment it carries."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.recording = ShipmentRecording()

    def close(self) -> None:
        self.inner.close()

    def call(self, op: str, **params) -> Dict[str, Any]:
        reply = self.inner.call(op, **params)
        if op == "repl.subscribe" and not reply.get("up_to_date"):
            self.recording.manifest = copy.deepcopy(reply)
        elif op == "repl.segments":
            key = (
                int(params["segment"]),
                int(params["offset"]),
                int(params["length"]),
            )
            self.recording.segments[key] = copy.deepcopy(reply)
        elif op == "repl.master":
            self.recording.master = copy.deepcopy(reply)
        return reply


class ReplayShipmentClient:
    """Serves a recorded shipment verbatim — the channel replay attack."""

    def __init__(self, recording: ShipmentRecording) -> None:
        if recording.manifest is None or recording.master is None:
            raise ReplicationError("recording does not hold a full shipment")
        self.recording = recording

    def close(self) -> None:
        pass

    def call(self, op: str, **params) -> Dict[str, Any]:
        if op == "repl.subscribe":
            # The replayer ignores the replica's freshness hints — that
            # is the whole attack.
            return copy.deepcopy(self.recording.manifest)
        if op == "repl.segments":
            key = (
                int(params["segment"]),
                int(params["offset"]),
                int(params["length"]),
            )
            reply = self.recording.segments.get(key)
            if reply is None:
                raise ReplicationError(
                    f"replayed shipment has no frame for {key}"
                )
            return copy.deepcopy(reply)
        if op == "repl.master":
            return copy.deepcopy(self.recording.master)
        raise ReplicationError(f"replayed shipment cannot answer {op!r}")


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


@dataclass
class ShipmentCaseResult:
    name: str
    outcome: str  # "detected" | "accepted-identical" | "FAILED"
    detail: str = ""


@dataclass
class ShipmentTamperReport:
    cases: List[ShipmentCaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[ShipmentCaseResult]:
        return [case for case in self.cases if case.outcome == "FAILED"]

    @property
    def detected(self) -> List[ShipmentCaseResult]:
        return [case for case in self.cases if case.outcome == "detected"]

    def summary(self) -> str:
        return (
            f"{len(self.cases)} shipment attacks: "
            f"{len(self.detected)} detected, "
            f"{len(self.failures)} FAILED"
        )

    def assert_ok(self, require_all_detected: bool = True) -> None:
        problems = list(self.failures)
        if require_all_detected:
            problems += [
                case for case in self.cases if case.outcome == "accepted-identical"
            ]
        if problems:
            details = "; ".join(
                f"{case.name}: {case.outcome} {case.detail}" for case in problems
            )
            raise AssertionError(f"shipment attacks not rejected: {details}")


class ShipmentTamperMatrix:
    """Run every channel attack against fresh replicas of one primary.

    ``server`` is the primary's in-process
    :class:`~repro.server.server.TdbServer`; ``make_replica_dir`` must
    return a fresh directory provisioned with the shared ``secret.key``;
    ``advance_primary`` must perform one durable commit on the primary
    (used to make a recorded shipment stale before replaying it).
    """

    def __init__(
        self,
        server,
        make_replica_dir: Callable[[], str],
        advance_primary: Callable[[], None],
        chunk_config=None,
    ) -> None:
        self.server = server
        self.make_replica_dir = make_replica_dir
        self.advance_primary = advance_primary
        self.chunk_config = chunk_config

    # -- target selection ------------------------------------------------

    def _payload_target(self) -> Optional[Tuple[int, int]]:
        """``(segment, offset)`` of a live payload in a sealed segment.

        Chosen from the primary's own location map so single-byte
        corruption under a forged digest provably lands on Merkle-
        covered state (the deep-scrub detection path).
        """
        store = self.server.db.chunk_store
        with store._lock:
            tail = store.segments.tail_segment
            for _chunk_id, locator in store.location_map.iterate():
                if locator.segment != tail:
                    return locator.segment, locator.offset
        return None

    def _connect(self):
        from repro.server.client import TdbClient

        return TdbClient(*self.server.address)

    # -- case runners ----------------------------------------------------

    def _classify_accept(self, directory: str) -> ShipmentCaseResult:
        """A shipment was installed: identical to the primary, or corrupt?"""
        from repro.replication import open_replica_database

        primary_master = self.server.db.chunk_store.master_io.load_latest()
        db = open_replica_database(directory, self.chunk_config)
        try:
            replica_master = db.chunk_store.master_io.load_latest()
        finally:
            db.close()
        identical = (
            replica_master.db_uuid == primary_master.db_uuid
            and replica_master.generation == primary_master.generation
            and replica_master.root == primary_master.root
            and replica_master.expected_counter == primary_master.expected_counter
        )
        if identical:
            return ShipmentCaseResult("", "accepted-identical")
        return ShipmentCaseResult(
            "", "FAILED", "tampered shipment was installed and diverges"
        )

    def _run_tamper_case(self, tamper: ShipmentTamper) -> ShipmentCaseResult:
        from repro.replication import ReplicaApplier

        directory = self.make_replica_dir()
        client = TamperingReplicationClient(self._connect(), tamper)
        applier = ReplicaApplier(
            directory, client=client, chunk_config=self.chunk_config
        )
        try:
            applier.sync_once()
        except TDBError as exc:
            return ShipmentCaseResult(
                tamper.kind, "detected", type(exc).__name__
            )
        finally:
            applier.close()
        result = self._classify_accept(directory)
        result.name = tamper.kind
        return result

    def _run_replay_case(self) -> ShipmentCaseResult:
        from repro.replication import ReplicaApplier

        directory = self.make_replica_dir()
        recorder = RecordingReplicationClient(self._connect())
        with ReplicaApplier(
            directory, client=recorder, chunk_config=self.chunk_config
        ) as applier:
            applier.sync_once()
        recording = recorder.recording
        # The primary moves on and the replica follows...
        self.advance_primary()
        with ReplicaApplier(
            directory, client=self._connect(), chunk_config=self.chunk_config
        ) as applier:
            applier.sync_once()
        # ...then the attacker replays the captured, now-stale shipment.
        with ReplicaApplier(
            directory,
            client=ReplayShipmentClient(recording),
            chunk_config=self.chunk_config,
        ) as applier:
            try:
                applier.sync_once()
            except TDBError as exc:
                return ShipmentCaseResult(
                    "replay-shipment", "detected", type(exc).__name__
                )
        result = self._classify_accept(directory)
        result.name = "replay-shipment"
        if result.outcome == "accepted-identical":
            # Installing the *stale* image without an error is exactly
            # the rollback the replica's one-way counter exists to stop.
            result = ShipmentCaseResult(
                "replay-shipment", "FAILED", "stale shipment was re-installed"
            )
        return result

    # -- driver ----------------------------------------------------------

    def run(self, kinds=SHIPMENT_TAMPER_KINDS) -> ShipmentTamperReport:
        report = ShipmentTamperReport()
        for kind in kinds:
            if kind == "replay-shipment":
                report.cases.append(self._run_replay_case())
                continue
            tamper = ShipmentTamper(kind)
            if kind == "forge-digest-payload":
                located = self._payload_target()
                if located is None:
                    report.cases.append(
                        ShipmentCaseResult(
                            kind,
                            "FAILED",
                            "no sealed live payload to target; grow the workload",
                        )
                    )
                    continue
                tamper = ShipmentTamper(
                    kind, target=located[0], payload_offset=located[1]
                )
            report.cases.append(self._run_tamper_case(tamper))
        return report
