"""On-log record framing and binary encodings for the chunk store.

Everything in the untrusted store is a sequence of *records*::

    record  := header || body || tag
    header  := magic(2) | kind(1) | flags(1) | body_len(4)
    tag     := MAC(chain_after_record)   when the security profile is on
               crc32(header || body)     when it is off

With security on, a running hash chain covers every record byte, so the
residual log replayed at recovery is authenticated end to end by the tag
of each record; with security off the tag still detects torn writes
(crash atomicity needs that even without an attacker).

Locators — (segment, offset, length, hash) tuples — are how the location
map points at chunk payloads and at its own nodes in the log.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ChunkStoreError, TamperDetectedError

__all__ = [
    "RECORD_MAGIC",
    "FORMAT_VERSION",
    "RecordKind",
    "Locator",
    "CommitItem",
    "CommitBody",
    "MapNodeBody",
    "CheckpointBody",
    "SegHeaderBody",
    "LinkBody",
    "RecordCodec",
]

RECORD_MAGIC = b"TR"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">2sBBI")
_CRC = struct.Struct(">I")


class RecordKind:
    """Record kind bytes (header field 3)."""

    SEG_HEADER = 1
    COMMIT = 2
    MAP_NODE = 3
    CHECKPOINT = 4
    LINK = 5

    ALL = (SEG_HEADER, COMMIT, MAP_NODE, CHECKPOINT, LINK)


# Commit flags.
FLAG_DURABLE = 0x01
FLAG_CLEANER = 0x02  # relocation commit produced by the log cleaner


class Locator(NamedTuple):
    """Where a payload lives in the log, plus its digest.

    ``hash_value`` is empty when the security profile is off; with
    security on it is the digest of the (encrypted) payload bytes and a
    Merkle leaf/child hash at the same time.

    A tuple rather than a dataclass: a map node decodes its fanout's
    worth of locators at once, and a tuple is built in C with no
    per-instance ``__dict__``.
    """

    segment: int
    offset: int
    length: int
    hash_value: bytes = b""

    _FIXED = struct.Struct(">IQI")

    def encode(self, hash_size: int) -> bytes:
        if len(self.hash_value) != hash_size:
            raise ChunkStoreError(
                f"locator hash is {len(self.hash_value)} bytes, expected {hash_size}"
            )
        return self._FIXED.pack(self.segment, self.offset, self.length) + self.hash_value

    @classmethod
    def decode(cls, data: bytes, offset: int, hash_size: int) -> Tuple["Locator", int]:
        segment, payload_offset, length = cls._FIXED.unpack_from(data, offset)
        offset += cls._FIXED.size
        hash_value = bytes(data[offset:offset + hash_size])
        if len(hash_value) != hash_size:
            raise ChunkStoreError("truncated locator")
        return cls(segment, payload_offset, length, hash_value), offset + hash_size

    @classmethod
    def encoded_size(cls, hash_size: int) -> int:
        return cls._FIXED.size + hash_size


@dataclass
class CommitItem:
    """One chunk write inside a commit record."""

    chunk_id: int
    payload: bytes


@dataclass
class CommitBody:
    """Parsed body of a COMMIT record."""

    seqno: int
    durable: bool
    from_cleaner: bool
    expected_counter: int
    next_chunk_id: int
    writes: List[CommitItem]
    deallocs: List[int]
    # Filled by the codec when parsing: byte offset of each write's payload
    # relative to the record start (header byte 0).
    payload_offsets: Optional[List[int]] = None

    _FIXED = struct.Struct(">QBQQII")
    _WRITE_HEAD = struct.Struct(">QI")
    _DEALLOC = struct.Struct(">Q")

    def encode(self) -> bytes:
        flags = (FLAG_DURABLE if self.durable else 0) | (
            FLAG_CLEANER if self.from_cleaner else 0
        )
        parts = [
            self._FIXED.pack(
                self.seqno,
                flags,
                self.expected_counter,
                self.next_chunk_id,
                len(self.writes),
                len(self.deallocs),
            )
        ]
        for item in self.writes:
            parts.append(self._WRITE_HEAD.pack(item.chunk_id, len(item.payload)))
            parts.append(item.payload)
        for chunk_id in self.deallocs:
            parts.append(self._DEALLOC.pack(chunk_id))
        return b"".join(parts)

    @classmethod
    def decode(cls, body: bytes, body_offset_in_record: int) -> "CommitBody":
        try:
            seqno, flags, counter, next_cid, n_writes, n_deallocs = cls._FIXED.unpack_from(
                body, 0
            )
            offset = cls._FIXED.size
            writes: List[CommitItem] = []
            payload_offsets: List[int] = []
            for _ in range(n_writes):
                chunk_id, length = cls._WRITE_HEAD.unpack_from(body, offset)
                offset += cls._WRITE_HEAD.size
                payload = bytes(body[offset:offset + length])
                if len(payload) != length:
                    raise ChunkStoreError("truncated commit payload")
                payload_offsets.append(body_offset_in_record + offset)
                offset += length
                writes.append(CommitItem(chunk_id, payload))
            deallocs: List[int] = []
            for _ in range(n_deallocs):
                (chunk_id,) = cls._DEALLOC.unpack_from(body, offset)
                offset += cls._DEALLOC.size
                deallocs.append(chunk_id)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed commit record: {exc}") from exc
        return cls(
            seqno=seqno,
            durable=bool(flags & FLAG_DURABLE),
            from_cleaner=bool(flags & FLAG_CLEANER),
            expected_counter=counter,
            next_chunk_id=next_cid,
            writes=writes,
            deallocs=deallocs,
            payload_offsets=payload_offsets,
        )

    def encoded_payload_offsets(self, body_offset_in_record: int) -> List[int]:
        """Offsets (relative to record start) each payload will land at."""
        offsets = []
        position = body_offset_in_record + self._FIXED.size
        for item in self.writes:
            position += self._WRITE_HEAD.size
            offsets.append(position)
            position += len(item.payload)
        return offsets


@dataclass
class MapNodeBody:
    """Parsed body of a MAP_NODE record (one location-map node payload)."""

    level: int
    index: int
    payload: bytes
    payload_offset: int = 0  # relative to record start, filled on parse

    _FIXED = struct.Struct(">BQI")

    def encode(self) -> bytes:
        return self._FIXED.pack(self.level, self.index, len(self.payload)) + self.payload

    @classmethod
    def decode(cls, body: bytes, body_offset_in_record: int) -> "MapNodeBody":
        try:
            level, index, length = cls._FIXED.unpack_from(body, 0)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed map-node record: {exc}") from exc
        payload = bytes(body[cls._FIXED.size:cls._FIXED.size + length])
        if len(payload) != length:
            raise ChunkStoreError("truncated map-node payload")
        return cls(level, index, payload, body_offset_in_record + cls._FIXED.size)

    @classmethod
    def payload_offset_in_record(cls, body_offset_in_record: int) -> int:
        return body_offset_in_record + cls._FIXED.size


@dataclass
class CheckpointBody:
    """Parsed body of a CHECKPOINT record (map flushed; master follows)."""

    seqno: int
    expected_counter: int
    next_chunk_id: int
    depth: int
    root: Optional[Locator]

    _FIXED = struct.Struct(">QQQBB")

    def encode(self, hash_size: int) -> bytes:
        has_root = 1 if self.root is not None else 0
        head = self._FIXED.pack(
            self.seqno, self.expected_counter, self.next_chunk_id, self.depth, has_root
        )
        if self.root is None:
            return head
        return head + self.root.encode(hash_size)

    @classmethod
    def decode(cls, body: bytes, hash_size: int) -> "CheckpointBody":
        try:
            seqno, counter, next_cid, depth, has_root = cls._FIXED.unpack_from(body, 0)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed checkpoint record: {exc}") from exc
        root = None
        if has_root:
            root, _ = Locator.decode(body, cls._FIXED.size, hash_size)
        return cls(seqno, counter, next_cid, depth, root)


@dataclass
class SegHeaderBody:
    """Parsed body of a SEG_HEADER record (first record of a segment)."""

    segment: int
    version: int = FORMAT_VERSION

    _FIXED = struct.Struct(">IH")

    def encode(self) -> bytes:
        return self._FIXED.pack(self.segment, self.version)

    @classmethod
    def decode(cls, body: bytes) -> "SegHeaderBody":
        try:
            segment, version = cls._FIXED.unpack_from(body, 0)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed segment header: {exc}") from exc
        return cls(segment, version)


@dataclass
class LinkBody:
    """Parsed body of a LINK record (log continues in another segment)."""

    next_segment: int

    _FIXED = struct.Struct(">I")

    def encode(self) -> bytes:
        return self._FIXED.pack(self.next_segment)

    @classmethod
    def decode(cls, body: bytes) -> "LinkBody":
        try:
            (next_segment,) = cls._FIXED.unpack_from(body, 0)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed link record: {exc}") from exc
        return cls(next_segment)


class RecordCodec:
    """Frames records and maintains the residual-log hash chain.

    With the security profile on, the codec holds the running chain value;
    ``frame`` advances it and appends a MAC tag, ``parse`` recomputes and
    verifies.  With security off, a CRC32 stands in for the tag and the
    chain is not maintained.
    """

    def __init__(self, hash_engine=None, mac=None, chain: bytes = b"") -> None:
        self.secure = mac is not None
        self._engine = hash_engine
        self._mac = mac
        self.chain = chain
        if self.secure and hash_engine is None:
            raise ChunkStoreError("secure codec needs a hash engine")
        self.tag_size = mac.tag_size if self.secure else _CRC.size

    def record_size(self, body_len: int) -> int:
        """Total framed size of a record with the given body length."""
        return _HEADER.size + body_len + self.tag_size

    @property
    def header_size(self) -> int:
        return _HEADER.size

    def frame(self, kind: int, body: bytes) -> bytes:
        """Produce the full record bytes, advancing the hash chain."""
        header = _HEADER.pack(RECORD_MAGIC, kind, 0, len(body))
        if self.secure:
            self.chain = self._engine.digest(self.chain + header + body)
            tag = self._mac.tag(self.chain)
        else:
            tag = _CRC.pack(zlib.crc32(header + body) & 0xFFFFFFFF)
        return header + body + tag

    def parse_header(self, data: bytes) -> Tuple[int, int]:
        """Parse a record header; return ``(kind, body_len)``."""
        if len(data) < _HEADER.size:
            raise ChunkStoreError("truncated record header")
        magic, kind, _flags, body_len = _HEADER.unpack_from(data, 0)
        if magic != RECORD_MAGIC:
            raise ChunkStoreError("bad record magic")
        if kind not in RecordKind.ALL:
            raise ChunkStoreError(f"unknown record kind {kind}")
        return kind, body_len

    def verify_and_advance(self, record: bytes) -> Tuple[int, bytes]:
        """Validate one full framed record; return ``(kind, body)``.

        Advances the hash chain on success.  Raises
        :class:`TamperDetectedError` when the tag does not match.
        """
        kind, body_len = self.parse_header(record)
        expected = self.record_size(body_len)
        if len(record) != expected:
            raise ChunkStoreError(
                f"record length mismatch: got {len(record)}, expected {expected}"
            )
        header_and_body = record[:_HEADER.size + body_len]
        tag = record[_HEADER.size + body_len:]
        if self.secure:
            candidate_chain = self._engine.digest(self.chain + header_and_body)
            if not self._mac.verify(candidate_chain, tag):
                raise TamperDetectedError(
                    "record authentication failed: log was modified"
                )
            self.chain = candidate_chain
        else:
            expected_crc = _CRC.pack(zlib.crc32(header_and_body) & 0xFFFFFFFF)
            if tag != expected_crc:
                raise TamperDetectedError("record checksum failed (torn write?)")
        return kind, record[_HEADER.size:_HEADER.size + body_len]
