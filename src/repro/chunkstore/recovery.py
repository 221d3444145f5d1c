"""Residual-log scanning for crash recovery.

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

The store then applies the scanned commits *up to the last durable one*;
everything after it — nondurable commits, a half-finished checkpoint — is
discarded (and physically truncated by a writable open), which is exactly
the paper's nondurable-commit guarantee (section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Union

from repro.chunkstore.format import (
    CheckpointBody,
    CommitBody,
    LinkBody,
    MapNodeBody,
    RecordCodec,
    RecordKind,
    SegHeaderBody,
)
from repro.chunkstore.segments import segment_file_name
from repro.errors import ChunkStoreError, TamperDetectedError
from repro.platform.untrusted import UntrustedStore

__all__ = ["ScannedRecord", "ScanResult", "scan_residual_log"]

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
    segments_opened: List[int]  # segment numbers whose SEG_HEADER we saw
    end_segment: int
    end_offset: int
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
    segments_opened: List[int] = []
    visited: Set[int] = set()
    segment = start_segment
    offset = start_offset

    def stopped(reason: str) -> ScanResult:
        return ScanResult(
            records=records,
            segments_opened=segments_opened,
            end_segment=segment,
            end_offset=offset,
            stop_reason=reason,
        )

    file_name = segment_file_name(segment)
    if not untrusted.exists(file_name):
        if tolerant:
            return stopped(f"anchor segment {segment} is missing")
        raise TamperDetectedError(f"anchor segment {segment} is missing")
    visited.add(segment)
    data = untrusted.read(file_name)
    if start_offset > len(data):
        # The master was written after the log bytes it anchors were
        # forced to disk; a file shorter than the anchor means the log
        # was truncated behind the master's back.
        if tolerant:
            return stopped(
                f"anchor segment {segment} shorter than the master's anchor"
            )
        raise TamperDetectedError(
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
        except ChunkStoreError as exc:
            if codec.secure:
                if tolerant:
                    return stopped(
                        f"unparseable record header in segment {segment} at {offset}"
                    )
                raise TamperDetectedError(
                    f"unparseable record header in segment {segment} at {offset}"
                ) from exc
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
                    return stopped(
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
        if kind == RecordKind.SEG_HEADER:
            if body.segment != segment:
                if tolerant:
                    return stopped(
                        f"segment {segment} carries a header for "
                        f"segment {body.segment}"
                    )
                raise TamperDetectedError(
                    f"segment {segment} carries a header for segment {body.segment}"
                )
            segments_opened.append(segment)
        if kind == RecordKind.LINK:
            next_segment = body.next_segment
            if next_segment in visited:
                if tolerant:
                    return stopped(
                        f"log links back to already-visited segment {next_segment}"
                    )
                raise TamperDetectedError(
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

    return ScanResult(
        records=records,
        segments_opened=segments_opened,
        end_segment=segment,
        end_offset=offset,
    )


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
