"""The log cleaner: reclaims segments holding mostly obsolete data.

When a chunk is rewritten or deallocated, its previous version in the log
becomes dead.  The cleaner picks the non-tail segments with the fewest
live bytes, copies their surviving payloads to the log tail, and recycles
them.  Per the paper (section 3.2.1), cleaning work per pass is bounded;
if bounded cleaning cannot free space, the store simply grows instead,
which keeps per-commit latency predictable at the cost of database size.

Key mechanics:

* Live chunk payloads are detected by structural parsing of the victim
  segment plus a location-map probe: a payload is live iff the map still
  points exactly at it.  Relocated ciphertext is copied verbatim (its
  digest, and hence the Merkle tree, does not change) inside a durable
  *cleaner commit*, so a crash can never lose relocated data.
* Live location-map nodes found in a victim are marked dirty instead;
  the checkpoint that follows rewrites them at the tail.
* A victim is only recycled once its accounted live bytes reach zero —
  if an attacker corrupted the segment so badly that live data became
  unreachable, the mismatch leaves the segment in place rather than
  destroying data silently.

The cleaner also owns the store's space policy: the grow-or-clean
decision after each commit, idle-time maintenance, returning surplus
free slots, and the deferral of dead-space credits that a nondurable
commit or a live snapshot still holds back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.chunkstore.format import (
    CommitBody,
    Locator,
    MapNodeBody,
    RecordKind,
)
from repro.chunkstore.segments import SegmentInfo, segment_file_name
from repro.errors import ChunkStoreError

__all__ = ["CLEANER_SEGMENTS_PER_PASS", "Cleaner", "CleanerStats", "RetireEvent"]

#: Victim segments one cleaning pass may process, bounding per-commit
#: cleaning latency.
CLEANER_SEGMENTS_PER_PASS = 4


@dataclass
class CleanerStats:
    """Counters exposed through the store's stats()."""

    passes: int = 0
    segments_freed: int = 0
    bytes_copied: int = 0
    chunks_relocated: int = 0
    map_nodes_relocated: int = 0
    victims_skipped: int = 0


class RetireEvent:
    """A dead-space credit waiting on snapshot releases / durability."""

    __slots__ = ("segment", "nbytes", "refs")

    def __init__(self, segment: int, nbytes: int, refs: int) -> None:
        self.segment = segment
        self.nbytes = nbytes
        self.refs = refs


@dataclass
class _VictimScan:
    live_chunks: List[Tuple[int, bytes]] = field(default_factory=list)
    live_map_nodes: int = 0
    parse_complete: bool = True


class Cleaner:
    """Bounded-cost cleaning passes over a chunk store's segments."""

    def __init__(self, store) -> None:
        self.store = store
        self.stats = CleanerStats()
        self._nondurable_pending: List[RetireEvent] = []

    def clean_pass(self, max_segments: int) -> int:
        """Attempt to recycle up to ``max_segments`` victims; return count freed."""
        if max_segments <= 0:
            return 0
        self.stats.passes += 1
        victims = self._select_victims(max_segments)
        if not victims:
            return 0

        relocated: List[Tuple[int, bytes]] = []
        map_nodes_dirtied = 0
        for info in victims:
            scan = self._scan_victim(info)
            relocated.extend(scan.live_chunks)
            map_nodes_dirtied += scan.live_map_nodes

        if relocated:
            self.store.commit_raw_payloads(relocated)
            self.stats.chunks_relocated += len(relocated)
            self.stats.bytes_copied += sum(len(payload) for _, payload in relocated)
        if map_nodes_dirtied:
            self.stats.map_nodes_relocated += map_nodes_dirtied
            self.store.checkpoint()

        freed = 0
        for info in victims:
            current = self.store.segments.segments.get(info.number)
            if current is None or current.is_free:
                continue
            if current.live_bytes == 0 and not current.is_tail:
                self.store.segments.free_segment(info.number)
                freed += 1
            else:
                # Deferred dead bytes (snapshots, pending nondurable
                # retirements) or unreachable "live" data: leave the
                # segment for a later pass rather than risk data loss.
                self.stats.victims_skipped += 1
        self.stats.segments_freed += freed
        return freed

    # -- space policy ----------------------------------------------------------------

    def space_policy(self) -> None:
        """The grow-or-clean decision of section 3.2.1, run after a commit.

        Keep at least one free slot ready for the next tail switch.  When
        utilization is below the configured maximum, bounded cleaning
        recycles dead space; when it is above, the store grows instead
        (a new slot is allocated implicitly at the next tail switch),
        which bounds per-commit cleaning cost.
        """
        segments, config = self.store.segments, self.store.config
        if segments.free_slot_count() == 0:
            if segments.utilization() < config.max_utilization:
                self.clean_pass(CLEANER_SEGMENTS_PER_PASS)
            return
        # Compaction: while utilization sits below the bound there is
        # reclaimable dead space; bounded cleaning squeezes it out so the
        # database size tracks live / max_utilization (Figure 11).  The
        # work is rate-limited by the classic LFS write-amplification
        # budget: packing segments to density u costs about u/(1-u) bytes
        # of copying per byte of application data, so that is the copy
        # allowance the target utilization earns.  Targets the workload's
        # hot/cold mix cannot reach simply exhaust their allowance instead
        # of thrashing.
        if segments.utilization() < config.max_utilization * 0.95:
            target = min(config.max_utilization, 0.95)
            amplification = target / max(0.05, 1.0 - target)
            allowance = amplification * self.store._app_payload_bytes
            if self.stats.bytes_copied >= allowance:
                return
            best_dead = max(
                (info.dead_bytes for info in segments.cleanable_segments()),
                default=0,
            )
            if best_dead >= config.segment_size // 4:
                self.clean_pass(CLEANER_SEGMENTS_PER_PASS)
        self.shrink_free_slots()

    def idle_maintenance(self, max_passes: int) -> dict:
        """Checkpoint, then clean until the utilization bound is met,
        nothing is reclaimable, or ``max_passes`` runs out."""
        store = self.store
        segments = store.segments
        report = {"checkpointed": False, "segments_freed": 0, "passes": 0}
        if store.location_map.has_dirty_nodes() or store._residual_bytes:
            store.checkpoint()
            report["checkpointed"] = True
        for _ in range(max_passes):
            if segments.utilization() >= store.config.max_utilization:
                break
            if not any(info.dead_bytes > 0 for info in segments.cleanable_segments()):
                break
            freed = self.clean_pass(CLEANER_SEGMENTS_PER_PASS)
            report["passes"] += 1
            report["segments_freed"] += freed
            self.shrink_free_slots()
            if freed == 0:
                break
        self.shrink_free_slots()
        return report

    def shrink_free_slots(self) -> None:
        """Return excess free slots while the database would stay within
        its utilization bound, so total size tracks
        live / max_utilization (the trade-off Figure 11 sweeps)."""
        segments, config = self.store.segments, self.store.config
        live = segments.live_bytes()
        while segments.free_slot_count() > 1:
            capacity_after = segments.capacity_bytes() - config.segment_size
            if capacity_after <= 0 or live / capacity_after > config.max_utilization:
                break
            if len(segments.segments) <= max(2, config.initial_segments):
                break
            segments.drop_slot(
                max(info.number for info in segments.segments.values() if info.is_free)
            )

    # -- dead-space deferral ---------------------------------------------------------

    def retire(self, locator: Locator, commit_durable: bool) -> None:
        """Account an obsolete payload, honouring deferral rules.

        Space obsoleted by a nondurable commit stays unreclaimable until
        a durable commit (section 3.2.2); space a snapshot can still
        reach stays unreclaimable until the snapshot is released.
        """
        pinning = [
            snap
            for snap in self.store.active_snapshots()
            if locator.segment in snap.pinned_segments
        ]
        refs = len(pinning) + (0 if commit_durable else 1)
        if refs == 0:
            self.store.segments.mark_dead(locator.segment, locator.length)
            return
        event = RetireEvent(locator.segment, locator.length, refs)
        if not commit_durable:
            self._nondurable_pending.append(event)
        for snap in pinning:
            snap.deferred.append(event)

    def release(self, events: List[RetireEvent]) -> None:
        """Drop one reference from each event; credit those that hit zero."""
        for event in events:
            event.refs -= 1
            if event.refs == 0:
                self.store.segments.mark_dead(event.segment, event.nbytes)

    def flush_nondurable(self) -> None:
        """A durability barrier passed: release nondurable deferrals."""
        pending, self._nondurable_pending = self._nondurable_pending, []
        self.release(pending)

    # -- victim selection ----------------------------------------------------------

    def _select_victims(self, max_segments: int) -> List[SegmentInfo]:
        pinned: Set[int] = set()
        for snapshot in self.store.active_snapshots():
            pinned.update(snapshot.pinned_segments)
        victims = []
        for info in self.store.segments.cleanable_segments():
            if info.number in pinned:
                continue
            if info.dead_bytes == 0 and info.live_bytes > 0:
                # Fully live segments gain nothing; with the victim list
                # sorted by live bytes everything after is fully live too.
                break
            victims.append(info)
            if len(victims) >= max_segments:
                break
        return victims

    # -- victim scanning -------------------------------------------------------------

    def _scan_victim(self, info: SegmentInfo) -> _VictimScan:
        """Structurally parse a victim segment and find its live payloads.

        No chain verification is possible mid-log; safety comes from the
        map probe (only payloads the Merkle-backed map points at are
        copied) and from the live-bytes cross-check before recycling.
        """
        store = self.store
        codec = store.codec
        result = _VictimScan()
        try:
            data = store.untrusted.read(segment_file_name(info.number))
        except Exception as exc:  # file vanished: nothing live can be saved
            raise ChunkStoreError(
                f"victim segment {info.number} is unreadable: {exc}"
            ) from exc
        offset = 0
        while offset + codec.header_size <= len(data):
            try:
                kind, body_len = codec.parse_header(
                    data[offset:offset + codec.header_size]
                )
            except ChunkStoreError:
                result.parse_complete = False
                break
            total = codec.record_size(body_len)
            if offset + total > len(data):
                result.parse_complete = False
                break
            body = data[offset + codec.header_size:offset + codec.header_size + body_len]
            if kind == RecordKind.COMMIT:
                self._scan_commit(info.number, offset, body, result)
            elif kind == RecordKind.MAP_NODE:
                self._scan_map_node(info.number, offset, body, result)
            offset += total
        return result

    def _scan_commit(
        self, segment: int, record_offset: int, body: bytes, result: _VictimScan
    ) -> None:
        try:
            commit = CommitBody.decode(body, self.store.codec.header_size)
        except ChunkStoreError:
            result.parse_complete = False
            return
        for item, rel_offset in zip(commit.writes, commit.payload_offsets):
            absolute = record_offset + rel_offset
            current = self.store.location_map.lookup(item.chunk_id)
            if (
                current is not None
                and current.segment == segment
                and current.offset == absolute
                and current.length == len(item.payload)
            ):
                result.live_chunks.append((item.chunk_id, item.payload))

    def _scan_map_node(
        self, segment: int, record_offset: int, body: bytes, result: _VictimScan
    ) -> None:
        try:
            node_body = MapNodeBody.decode(body, self.store.codec.header_size)
        except ChunkStoreError:
            result.parse_complete = False
            return
        absolute = record_offset + node_body.payload_offset
        dirtied = self.store.location_map.relocate_node_if_current(
            node_body.level,
            node_body.index,
            segment,
            absolute,
            len(node_body.payload),
        )
        if dirtied:
            result.live_map_nodes += 1
