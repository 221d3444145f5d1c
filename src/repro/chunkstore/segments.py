"""Log segments: allocation, appends, recycling, space accounting.

The log is a chain of fixed-size segment files (``seg-00000001`` ...) in
the untrusted store.  Records are appended to the *tail* segment; when the
tail cannot hold the next record, a LINK record is written and the log
continues in the next segment — a recycled free slot when one exists,
a brand new one otherwise (that is how the store "grows").  Crucially, a
segment file's length always equals the number of log bytes written to
it, so "end of file" is "end of log" — a writable recovery truncates any
discarded tail so the invariant survives crashes.

Accounting: each segment tracks *accountable* bytes (live payload bytes
appended into it) and *dead* bytes (payload bytes since obsoleted).  The
cleaner uses ``live_bytes`` per segment to pick victims, and the store
uses the overall live/capacity ratio to decide between cleaning and
growing (section 3.2.1 of the paper).

Residual-log protection: segments written since the last checkpoint hold
records recovery still needs, so they are excluded from cleaning until a
checkpoint moves the master anchor past them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.chunkstore.format import LinkBody, RecordCodec, RecordKind, SegHeaderBody
from repro.errors import ChunkStoreError
from repro.platform.untrusted import UntrustedStore

__all__ = ["SegmentInfo", "SegmentManager", "segment_file_name"]


def segment_file_name(number: int) -> str:
    return f"seg-{number:08d}"


# Segment states as stored in the master record.
STATE_FULL = 0
STATE_TAIL = 1
STATE_FREE = 2


@dataclass
class SegmentInfo:
    """Bookkeeping for one segment slot."""

    number: int
    accountable_bytes: int = 0
    dead_bytes: int = 0
    overhead_bytes: int = 0
    file_bytes: int = 0
    is_tail: bool = False
    is_free: bool = False

    @property
    def live_bytes(self) -> int:
        return self.accountable_bytes - self.dead_bytes

    @property
    def state(self) -> int:
        if self.is_free:
            return STATE_FREE
        if self.is_tail:
            return STATE_TAIL
        return STATE_FULL

    @classmethod
    def with_state(
        cls,
        number: int,
        accountable: int,
        dead: int,
        overhead: int,
        file_bytes: int,
        state: int,
    ) -> "SegmentInfo":
        return cls(
            number=number,
            accountable_bytes=accountable,
            dead_bytes=dead,
            overhead_bytes=overhead,
            file_bytes=file_bytes,
            is_tail=state == STATE_TAIL,
            is_free=state == STATE_FREE,
        )

    def reset_for_reuse(self) -> None:
        self.accountable_bytes = 0
        self.dead_bytes = 0
        self.overhead_bytes = 0
        self.file_bytes = 0
        self.is_free = False
        self.is_tail = False


class SegmentManager:
    """Owns the segment files and the append cursor.

    The manager frames its own LINK and SEG_HEADER records through the
    store's :class:`RecordCodec` so the hash chain covers them in log
    order.
    """

    def __init__(
        self,
        untrusted: UntrustedStore,
        codec: RecordCodec,
        segment_size: int,
    ) -> None:
        self.untrusted = untrusted
        self.codec = codec
        self.segment_size = segment_size
        self.sync_enabled = True
        self.segments: Dict[int, SegmentInfo] = {}
        self.tail_segment: Optional[int] = None
        self.tail_offset = 0
        self.next_segment_number = 1
        self.residual_segments: Set[int] = set()
        self._dirty: Set[int] = set()

    # -- setup ------------------------------------------------------------------

    def create_first_segment(self) -> None:
        """Format-time bootstrap: create the first tail segment."""
        if self.segments:
            raise ChunkStoreError("segment manager already initialized")
        self._open_tail(self._take_slot())

    def preallocate_free_slots(self, count: int) -> None:
        """Reserve ``count`` recycled-empty slots (initial database size)."""
        for _ in range(count):
            number = self.next_segment_number
            self.next_segment_number += 1
            info = SegmentInfo(number=number, is_free=True)
            self.segments[number] = info
            self.untrusted.write(segment_file_name(number), 0, b"")

    def restore(
        self,
        tail_segment: int,
        tail_offset: int,
        next_segment_number: int,
        residual_segments: Set[int],
    ) -> None:
        """Adopt the append cursor recovery found, in memory only.

        The tail file may still hold the discarded log end; a writable
        open cuts it back before its first append (scanning guarantees
        ``tail_offset`` <= file size, so the cut only ever shrinks).
        """
        if tail_segment not in self.segments:
            raise ChunkStoreError(f"tail segment {tail_segment} missing from table")
        for info in self.segments.values():
            info.is_tail = info.number == tail_segment
            if info.is_tail:
                info.is_free = False
        self.tail_segment = tail_segment
        self.tail_offset = tail_offset
        self.next_segment_number = next_segment_number
        self.residual_segments = set(residual_segments)
        self.residual_segments.add(tail_segment)
        self.segments[tail_segment].file_bytes = tail_offset

    # -- appends ----------------------------------------------------------------

    def append_record(self, kind: int, body: bytes, accountable_bytes: int = 0):
        """Frame and append one record; return ``(segment, record_offset)``.

        ``accountable_bytes`` is the number of payload bytes inside the
        record that participate in live-space accounting.
        """
        record_size = self.codec.record_size(len(body))
        self._ensure_capacity(record_size)
        record = self.codec.frame(kind, body)
        segment = self.tail_segment
        offset = self.tail_offset
        self.untrusted.write(segment_file_name(segment), offset, record)
        self.tail_offset += len(record)
        info = self.segments[segment]
        info.file_bytes = self.tail_offset
        info.accountable_bytes += accountable_bytes
        info.overhead_bytes += len(record) - accountable_bytes
        self._dirty.add(segment)
        self.residual_segments.add(segment)
        return segment, offset

    def _ensure_capacity(self, record_size: int) -> None:
        if self.tail_segment is None:
            raise ChunkStoreError("segment manager not initialized")
        link_size = self.codec.record_size(LinkBody._FIXED.size)
        remaining = self.segment_size - self.tail_offset - link_size
        if record_size <= remaining:
            return
        header_size = self.codec.record_size(SegHeaderBody._FIXED.size)
        if self.tail_offset <= header_size:
            # Fresh segment: accept an oversized record rather than loop.
            return
        self._link_to_new_tail()

    def _take_slot(self) -> int:
        """Pick the next tail: recycle a free slot or grow by one."""
        free = sorted(
            number for number, info in self.segments.items() if info.is_free
        )
        if free:
            return free[0]
        number = self.next_segment_number
        self.next_segment_number += 1
        return number

    def _link_to_new_tail(self) -> None:
        target = self._take_slot()
        link = self.codec.frame(RecordKind.LINK, LinkBody(next_segment=target).encode())
        old_tail = self.tail_segment
        self.untrusted.write(segment_file_name(old_tail), self.tail_offset, link)
        self.tail_offset += len(link)
        info = self.segments[old_tail]
        info.file_bytes = self.tail_offset
        info.overhead_bytes += len(link)
        info.is_tail = False
        self._dirty.add(old_tail)
        self._open_tail(target)

    def _open_tail(self, number: int) -> None:
        info = self.segments.get(number)
        if info is None:
            info = SegmentInfo(number=number)
            self.segments[number] = info
        else:
            if not info.is_free:
                raise ChunkStoreError(f"cannot reuse non-free segment {number}")
            info.reset_for_reuse()
        header = self.codec.frame(
            RecordKind.SEG_HEADER, SegHeaderBody(segment=number).encode()
        )
        name = segment_file_name(number)
        if self.untrusted.exists(name):
            self.untrusted.truncate(name, 0)
        self.untrusted.write(name, 0, header)
        info.file_bytes = len(header)
        info.overhead_bytes += len(header)
        info.is_tail = True
        self.tail_segment = number
        self.tail_offset = len(header)
        self._dirty.add(number)
        self.residual_segments.add(number)

    # -- reads ------------------------------------------------------------------

    def read(self, segment: int, offset: int, length: int) -> bytes:
        """Read raw bytes out of a segment (payload or record fetch)."""
        info = self.segments.get(segment)
        if info is None or info.is_free:
            raise ChunkStoreError(f"read from unknown or free segment {segment}")
        data = self.untrusted.read(segment_file_name(segment), offset, length)
        if len(data) != length:
            raise ChunkStoreError(
                f"short read in segment {segment}: wanted {length}, got {len(data)}"
            )
        return data

    # -- accounting ----------------------------------------------------------------

    def mark_dead(self, segment: int, nbytes: int) -> None:
        """Record that ``nbytes`` of payload in ``segment`` are obsolete."""
        info = self.segments.get(segment)
        if info is None or info.is_free:
            return  # slot already recycled; nothing left to account
        info.dead_bytes += nbytes
        if info.dead_bytes > info.accountable_bytes:
            raise ChunkStoreError(
                f"accounting underflow in segment {segment}: "
                f"dead {info.dead_bytes} > accountable {info.accountable_bytes}"
            )

    def live_bytes(self) -> int:
        return sum(info.live_bytes for info in self.segments.values())

    def capacity_bytes(self) -> int:
        """Total allocated space: every slot counts at least one segment."""
        return sum(
            max(self.segment_size, info.file_bytes)
            for info in self.segments.values()
        )

    def overhead_bytes_total(self) -> int:
        return sum(info.overhead_bytes for info in self.segments.values())

    def utilization(self) -> float:
        """Live fraction of the *usable* capacity.

        Record framing (headers, tags, segment headers, links) is
        bookkeeping, not chunk space; excluding it makes a fully-live
        segment measure ~1.0, matching the paper's "fraction of the
        database files that contain live chunks".
        """
        usable = self.capacity_bytes() - self.overhead_bytes_total()
        return self.live_bytes() / usable if usable > 0 else 0.0

    def free_slot_count(self) -> int:
        return sum(1 for info in self.segments.values() if info.is_free)

    def cleanable_segments(self) -> List[SegmentInfo]:
        """Victim candidates ordered by live bytes (best victims first).

        Excludes the tail, free slots, and residual-log segments (their
        records are still needed by crash recovery until the next
        checkpoint moves the master anchor).
        """
        victims = [
            info
            for info in self.segments.values()
            if not info.is_tail
            and not info.is_free
            and info.number not in self.residual_segments
        ]
        victims.sort(key=lambda info: info.live_bytes)
        return victims

    # -- lifecycle ----------------------------------------------------------------

    def free_segment(self, segment: int) -> None:
        """Recycle a segment whose live data has been relocated."""
        info = self.segments.get(segment)
        if info is None:
            raise ChunkStoreError(f"cannot free unknown segment {segment}")
        if info.is_tail:
            raise ChunkStoreError("cannot free the tail segment")
        if segment in self.residual_segments:
            raise ChunkStoreError(
                f"segment {segment} is part of the residual log"
            )
        name = segment_file_name(segment)
        if self.untrusted.exists(name):
            self.untrusted.truncate(name, 0)
        info.reset_for_reuse()
        info.is_free = True
        self._dirty.discard(segment)

    def drop_slot(self, segment: int) -> None:
        """Remove a free slot entirely (shrinks the database)."""
        info = self.segments.get(segment)
        if info is None or not info.is_free:
            raise ChunkStoreError(f"can only drop free slots, not segment {segment}")
        del self.segments[segment]
        name = segment_file_name(segment)
        if self.untrusted.exists(name):
            self.untrusted.delete(name)

    def end_checkpoint(self) -> None:
        """The master anchor moved: only the tail remains residual."""
        self.residual_segments = {self.tail_segment}

    def sync_dirty(self) -> None:
        """Flush every segment written since the last sync.

        With ``sync_enabled`` off (benchmarking convenience), the dirty
        set is still cleared but no flush calls are issued.
        """
        if self.sync_enabled:
            for segment in sorted(self._dirty):
                if segment in self.segments:
                    self.untrusted.sync(segment_file_name(segment))
        self._dirty.clear()

    def snapshot_infos(self) -> List[SegmentInfo]:
        """Copies of all segment infos (for the master record)."""
        return [
            SegmentInfo(
                number=info.number,
                accountable_bytes=info.accountable_bytes,
                dead_bytes=info.dead_bytes,
                overhead_bytes=info.overhead_bytes,
                file_bytes=info.file_bytes,
                is_tail=info.is_tail,
                is_free=info.is_free,
            )
            for info in self.segments.values()
        ]
