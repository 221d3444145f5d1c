"""Crash recovery: one residual-log scan and one replay for every open.

After the master record is loaded, everything the master does not already
describe lives in the *residual log*: the records appended since the last
checkpoint.  The scanner walks them in order, re-deriving the hash chain
from the master's anchor, and classifies how the log ends:

* a record that extends past the end of its segment file is a **torn
  tail** — an interrupted append; scanning stops and the tail is
  discarded (this is the expected shape of a crash),
* a complete record whose tag fails to verify is **tampering** (with the
  security profile on) and recovery refuses to proceed,
* otherwise the log simply ends at the end of the tail segment file.

:func:`recover` then applies the scanned commits *up to the last durable
one*; everything after it — nondurable commits, a half-finished
checkpoint — is discarded (and physically truncated by a writable open),
which is exactly the paper's nondurable-commit guarantee (section
3.2.2).  Writable, read-only and salvage opens share this one procedure;
only a writable open changes the files, and salvage degrades instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Set, Union

from repro.chunkstore.checkpoint import attach_head_log, build_log
from repro.chunkstore.format import (
    CheckpointBody,
    CommitBody,
    LinkBody,
    MapNodeBody,
    RecordCodec,
    RecordKind,
    SegHeaderBody,
)
from repro.chunkstore.master import MasterRecord
from repro.chunkstore.segments import SegmentInfo, segment_file_name
from repro.errors import (
    ChunkStoreError,
    RecoveryError,
    ReplayDetectedError,
    TamperDetectedError,
    TDBError,
)
from repro.platform.untrusted import UntrustedStore

__all__ = [
    "SalvageInfo",
    "ScannedRecord",
    "ScanResult",
    "check_counter",
    "recover",
    "scan_residual_log",
]

Body = Union[CommitBody, MapNodeBody, CheckpointBody, SegHeaderBody, LinkBody]


@dataclass
class ScannedRecord:
    """One chain-valid record found in the residual log."""

    kind: int
    body: Body
    segment: int
    offset: int
    total_size: int
    chain_after: bytes

    @property
    def end_offset(self) -> int:
        return self.offset + self.total_size


@dataclass
class ScanResult:
    """Everything learned from one pass over the residual log."""

    records: List[ScannedRecord]
    stop_reason: Optional[str] = None  # tolerant scans: why scanning stopped


def scan_residual_log(
    untrusted: UntrustedStore,
    codec: RecordCodec,
    start_segment: int,
    start_offset: int,
    hash_size: int,
    tolerant: bool = False,
) -> ScanResult:
    """Scan and verify the residual log starting at the anchor.

    ``codec`` must be primed with the master's chain anchor; it is
    advanced record by record.  Raises :class:`TamperDetectedError` on a
    complete-but-invalid record under the secure profile — unless
    ``tolerant`` is set (the salvage path), in which case scanning stops
    at the first invalid record and the chain-valid prefix is returned
    with ``stop_reason`` describing what ended it.
    """
    records: List[ScannedRecord] = []
    visited: Set[int] = set()
    segment = start_segment
    offset = start_offset

    def refuse(reason: str) -> ScanResult:
        """Tampering: salvage stops at the valid prefix, others raise."""
        if not tolerant:
            raise TamperDetectedError(reason)
        return ScanResult(records=records, stop_reason=reason)

    file_name = segment_file_name(segment)
    if not untrusted.exists(file_name):
        return refuse(f"anchor segment {segment} is missing")
    visited.add(segment)
    data = untrusted.read(file_name)
    if start_offset > len(data):
        # The master was written after the log bytes it anchors were
        # forced to disk; a file shorter than the anchor means the log
        # was truncated behind the master's back.
        return refuse(
            f"anchor segment {segment} is shorter ({len(data)} bytes) than "
            f"the master's log anchor ({start_offset}): log truncated"
        )

    while True:
        if offset >= len(data):
            break
        remaining = len(data) - offset
        if remaining < codec.header_size:
            break  # torn header at the tail
        try:
            kind, body_len = codec.parse_header(data[offset:offset + codec.header_size])
        except ChunkStoreError:
            if codec.secure:
                return refuse(
                    f"unparseable record header in segment {segment} at {offset}"
                )
            break
        total = codec.record_size(body_len)
        if offset + total > len(data):
            break  # torn record at the tail: the append was interrupted
        record_bytes = data[offset:offset + total]
        try:
            kind, body_bytes = codec.verify_and_advance(record_bytes)
        except TamperDetectedError:
            if codec.secure:
                if tolerant:
                    return refuse(
                        f"record in segment {segment} at {offset} failed validation"
                    )
                raise
            break  # CRC failure without an attacker model: treat as torn
        body = _decode_body(kind, body_bytes, codec.header_size, hash_size)
        records.append(
            ScannedRecord(
                kind=kind,
                body=body,
                segment=segment,
                offset=offset,
                total_size=total,
                chain_after=codec.chain,
            )
        )
        offset += total
        if kind == RecordKind.SEG_HEADER and body.segment != segment:
            return refuse(
                f"segment {segment} carries a header for segment {body.segment}"
            )
        if kind == RecordKind.LINK:
            next_segment = body.next_segment
            if next_segment in visited:
                return refuse(
                    f"log links back to already-visited segment {next_segment}"
                )
            next_name = segment_file_name(next_segment)
            if not untrusted.exists(next_name):
                # The link was written but the crash hit before the next
                # segment's header landed; the log effectively ends here.
                break
            visited.add(next_segment)
            segment = next_segment
            offset = 0
            data = untrusted.read(next_name)

    return ScanResult(records=records)


def _decode_body(kind: int, body: bytes, header_size: int, hash_size: int) -> Body:
    if kind == RecordKind.COMMIT:
        return CommitBody.decode(body, header_size)
    if kind == RecordKind.MAP_NODE:
        return MapNodeBody.decode(body, header_size)
    if kind == RecordKind.CHECKPOINT:
        return CheckpointBody.decode(body, hash_size)
    if kind == RecordKind.SEG_HEADER:
        return SegHeaderBody.decode(body)
    if kind == RecordKind.LINK:
        return LinkBody.decode(body)
    raise ChunkStoreError(f"unhandled record kind {kind}")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


@dataclass
class SalvageInfo:
    """What a read-only salvage open managed to reconstruct.

    Salvage never raises for damage it can route around; instead the
    anomalies land here so an exporting application can judge how much
    to trust what it reads.
    """

    counter_expected: int
    counter_actual: int
    commits_applied: int
    commits_discarded: int
    scan_stop_reason: Optional[str] = None
    apply_stop_reason: Optional[str] = None

    @property
    def counter_skew(self) -> int:
        return self.counter_actual - self.counter_expected

    @property
    def replay_suspected(self) -> bool:
        """The image is older than the hardware counter says it should be."""
        return self.counter_actual > self.counter_expected

    @property
    def degraded(self) -> bool:
        return bool(
            self.scan_stop_reason
            or self.apply_stop_reason
            or self.counter_skew
            or self.commits_discarded
        )


def recover(store):
    """Open ``store`` (fresh from ``ChunkStore._new``); a failed open closes its files."""
    try:
        master = store.master_io.load_latest()
        _adopt_config(store, master)
        store.db_uuid = master.db_uuid
        store._generation = master.generation
        build_log(store, master.chain_anchor, master.depth, master.root)
        _replay(store, master)
        if not store.salvage:
            # Replay/counter checks first: a stale whole-image replay must
            # surface as ReplayDetectedError, not as a head-log anomaly.
            attach_head_log(store, master)
    except BaseException:
        store.untrusted.close()
        raise
    return store


def _adopt_config(store, master: MasterRecord) -> None:
    """Take segment size and map fanout from ``master`` (MAC-verified
    when secure).  The profile and its hash size must match: the
    caller's profile is the trust anchor against a downgraded master."""
    if (master.secure, master.hash_size) != (store.secure, store.hash_size):
        raise ChunkStoreError(
            "security profile mismatch between store and configuration"
        )
    try:
        store.config = replace(
            store.config,
            segment_size=master.segment_size,
            map_fanout=master.map_fanout,
        )
    except ValueError as exc:
        raise ChunkStoreError(f"master record format rejected: {exc}") from None


def _replay(store, master: MasterRecord) -> None:
    """Recovery (paper section 3): one procedure for every open.

    Adopts the master's segment table, applies the residual log up to
    its last durable commit (everything after it is discarded, which
    implements the nondurable-commit guarantee), and checks the one-way
    counter.  Salvage scans tolerantly, stops instead of raising at the
    first record it cannot apply, and records the counter in
    ``salvage_info`` instead of checking it.  All of this happens in
    memory; only a writable open then makes the files match
    (:func:`_repair_media`).
    """
    salvage = store.salvage
    segments = store.segments
    segments.segments = {info.number: replace(info) for info in master.segments}
    scan = scan_residual_log(
        store.untrusted,
        store.codec,
        master.anchor_segment,
        master.anchor_offset,
        store.hash_size,
        tolerant=salvage,
    )
    cutoff = 0
    for idx, record in enumerate(scan.records):
        if record.kind == RecordKind.COMMIT and record.body.durable:
            cutoff = idx + 1

    store._seqno = master.commit_seqno
    store._counter_value = master.expected_counter
    store.ids.next_id = master.next_chunk_id
    applied = 0
    apply_stop: Optional[str] = None
    for record in scan.records[:cutoff]:
        try:
            _apply_record(store, record)
        except TDBError as exc:
            if not salvage:
                raise
            apply_stop = (
                f"record in segment {record.segment} at {record.offset} "
                f"not applicable: {type(exc).__name__}: {exc}"
            )
            break
        applied += 1
    kept, discarded = scan.records[:applied], scan.records[applied:]

    # Segments opened by discarded records: a recycled free slot is free
    # again, a brand-new segment's file is an orphan.
    orphans = []
    for record in discarded:
        if record.kind != RecordKind.SEG_HEADER:
            continue
        info = segments.segments.get(record.body.segment)
        if info is None:
            orphans.append(record.body.segment)
        elif not info.is_tail:
            info.reset_for_reuse()
            info.is_free = True

    # The scan advanced the codec past the discarded records too; the
    # next append chains from the last kept one.
    tail_segment, tail_offset = master.anchor_segment, master.anchor_offset
    store.codec.chain = master.chain_anchor
    if kept:
        tail_segment, tail_offset = kept[-1].segment, kept[-1].end_offset
        store.codec.chain = kept[-1].chain_after
    segments.restore(
        tail_segment,
        tail_offset,
        max([master.next_segment_number] + [n + 1 for n in segments.segments]),
        {master.anchor_segment} | {record.segment for record in kept},
    )
    _reconcile_segments(store)
    if salvage:
        store.salvage_info = SalvageInfo(
            counter_expected=store._counter_value,
            counter_actual=(
                store.counter.read() if store.secure else store._counter_value
            ),
            commits_applied=sum(1 for r in kept if r.kind == RecordKind.COMMIT),
            commits_discarded=sum(
                1 for r in discarded if r.kind == RecordKind.COMMIT
            ),
            scan_stop_reason=scan.stop_reason,
            apply_stop_reason=apply_stop,
        )
        return
    store._check_counter()
    if not store.read_only:
        _repair_media(store, orphans)


def _apply_record(store, record: ScannedRecord) -> None:
    """Fold one residual-log record into the segment table and map."""
    info = store.segments.segments.get(record.segment)
    if record.kind == RecordKind.SEG_HEADER:
        if info is None:
            info = SegmentInfo(number=record.segment)
            store.segments.segments[record.segment] = info
        else:
            info.reset_for_reuse()
    if info is None:
        raise RecoveryError(f"residual log touches unknown segment {record.segment}")
    payload_bytes = 0
    if record.kind == RecordKind.COMMIT:
        payload_bytes = _apply_commit(store, record, info)
    info.file_bytes = max(info.file_bytes, record.end_offset)
    info.overhead_bytes += record.total_size - payload_bytes


def _apply_commit(store, record: ScannedRecord, info: SegmentInfo) -> int:
    """Redo one commit record; return its payload byte count."""
    body: CommitBody = record.body
    for item, rel_offset in zip(body.writes, body.payload_offsets):
        locator = store._locator(record.segment, record.offset + rel_offset, item.payload)
        info.accountable_bytes += locator.length
        old = store.location_map.set(item.chunk_id, locator)
        if old is not None:
            store.segments.mark_dead(old.segment, old.length)
    for chunk_id in body.deallocs:
        old = store.location_map.remove(chunk_id)
        if old is not None:
            store.segments.mark_dead(old.segment, old.length)
    store._seqno = max(store._seqno, body.seqno)
    store._counter_value = max(store._counter_value, body.expected_counter)
    store.ids.next_id = max(store.ids.next_id, body.next_chunk_id)
    return sum(len(item.payload) for item in body.writes)


def _reconcile_segments(store) -> None:
    """Compare the segment table against the actual files.

    A segment the cleaner freed after the last checkpoint has a
    truncated (or missing) file but zero live bytes after replay — it
    becomes a free slot.  A short file with live bytes means the
    attacker destroyed data: tamper detected (salvage leaves it to
    scrub, which names the chunks that are gone).
    """
    untrusted = store.untrusted
    for info in store.segments.segments.values():
        if info.is_tail or info.is_free:
            continue
        name = segment_file_name(info.number)
        actual = untrusted.size(name) if untrusted.exists(name) else -1
        if actual == info.file_bytes:
            continue
        if info.live_bytes == 0:
            info.reset_for_reuse()
            info.is_free = True
        elif not store.salvage:
            raise TamperDetectedError(
                f"segment {info.number} is truncated or missing "
                f"({actual} bytes on disk, {info.file_bytes} recorded) "
                f"with {info.live_bytes} live bytes"
            )


def check_counter(store) -> None:
    """The replay-attack check (paper section 3).

    Installed as ``ChunkStore._check_counter``; replay calls it through
    the store so a test can disable it.
    """
    if not store.secure:
        return
    expected = store._counter_value
    actual = store.counter.read()
    if actual == expected:
        return
    if actual == expected - 1:
        if store.read_only:
            raise TamperDetectedError(
                f"one-way counter is at {actual} but the newest durable "
                f"commit expects {expected}; after a crash between that "
                "commit's sync and its counter advance only a writable "
                "open may resync the counter"
            )
        # The crash hit between the commit record reaching the log and
        # the counter bump; resync the counter.  The commit itself had
        # not reported success, so no acknowledged state is lost.
        store.counter.increment()
        store.possible_lost_commit = True
        return
    if actual > expected:
        raise ReplayDetectedError(
            f"one-way counter is at {actual} but the newest durable state "
            f"expects {expected}: an old database image was replayed"
        )
    raise TamperDetectedError(
        f"one-way counter regressed ({actual} < {expected - 1}); "
        "the platform counter was tampered with"
    )


def _repair_media(store, orphans: List[int]) -> None:
    """Make the files match the recovered state (writable opens only).

    Deletes segment files that only discarded records created, empties
    every free slot, and cuts the tail back to the recovered log end,
    which restores "file length == log bytes" for the next append.
    """
    untrusted = store.untrusted
    for number in orphans:
        name = segment_file_name(number)
        if untrusted.exists(name):
            untrusted.delete(name)
    for info in store.segments.segments.values():
        name = segment_file_name(info.number)
        if info.is_tail:
            if untrusted.size(name) > info.file_bytes:
                untrusted.truncate(name, info.file_bytes)
        elif info.is_free:
            if not untrusted.exists(name):
                untrusted.write(name, 0, b"")
            elif untrusted.size(name) > 0:
                untrusted.truncate(name, 0)
