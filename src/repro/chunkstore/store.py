"""The :class:`ChunkStore` facade (Figure 2 of the paper, and then some).

Public operations::

    store = ChunkStore.format(untrusted, secret, counter, config)   # new db
    store = ChunkStore.open(untrusted, secret, counter, config)     # recover

    cid = store.allocate_chunk_id()
    store.write(cid, b"state")            # single-op durable commit
    store.commit({cid: b"new"}, deallocs=[old_cid], durable=False)  # batch
    data = store.read(cid)
    store.deallocate(cid)

    snap = store.snapshot()               # copy-on-write backup view
    store.checkpoint()                    # flush location map + master
    store.clean()                         # explicit cleaner pass
    store.close()

Security behaviour: with the secure profile every payload is encrypted,
every record is covered by the residual-log hash chain and MACed, the
master record binds the Merkle root to the one-way counter, and
``open()`` raises :class:`TamperDetectedError` / :class:`ReplayDetectedError`
when the untrusted store does not check out.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cache import SharedLruCache
from repro.chunkstore.cleaner import Cleaner, CleanerStats
from repro.chunkstore.format import (
    CheckpointBody,
    CommitBody,
    CommitItem,
    Locator,
    MapNodeBody,
    RecordCodec,
    RecordKind,
)
from repro.chunkstore.locmap import LocationMap, MapNode, NodeIO
from repro.chunkstore.master import MasterIO, MasterRecord, MASTER_FILES
from repro.chunkstore.recovery import scan_residual_log
from repro.chunkstore.scrub import DamageReport, scrub_store
from repro.chunkstore.segments import SegmentInfo, SegmentManager, segment_file_name
from repro.chunkstore.snapshot import Snapshot
from repro.config import ChunkStoreConfig
from repro.crypto import (
    InstrumentedHashEngine,
    InstrumentedPayloadCipher,
    create_hash_engine,
    create_mac,
    create_payload_cipher,
)
from repro.errors import (
    ChunkNotFoundError,
    ChunkStoreError,
    ReadOnlyStoreError,
    RecoveryError,
    ReplayDetectedError,
    SalvageReadOnlyError,
    TamperDetectedError,
    TDBError,
)
from repro.perf import PerfStats
from repro.platform.counter import OneWayCounter
from repro.platform.secret import SecretStore
from repro.platform.untrusted import UntrustedStore
from repro.proofs.headlog import TransparencyLog

__all__ = [
    "ChunkStore",
    "ChunkStoreStats",
    "SalvageInfo",
    "SegmentExportInfo",
    "ShipmentAnchor",
]

#: Map nodes the store's own cache holds when the caller passes no
#: shared cache (the full stack shares one with the object store).
MAP_CACHE_ENTRIES = 1024
#: Victim segments one cleaning pass may process, bounding per-commit
#: cleaning latency.
CLEANER_SEGMENTS_PER_PASS = 4


@dataclass(frozen=True)
class SegmentExportInfo:
    """One live segment's shippable extent at shipment-anchor time."""

    number: int
    file_bytes: int
    is_tail: bool


@dataclass
class ShipmentAnchor:
    """Everything a replication shipment needs, captured atomically.

    ``snapshot`` pins every listed segment against the cleaner until the
    holder releases it; ``segments`` records each segment's size as of
    the anchoring checkpoint — bytes below that size are immutable
    (sealed segments never change, the tail only grows past it), so they
    can be streamed without further locking.
    """

    snapshot: "Snapshot"
    db_uuid: bytes
    generation: int
    commit_seqno: int
    expected_counter: int
    master_name: str
    master_blob: bytes
    segments: List[SegmentExportInfo]


@dataclass
class ChunkStoreStats:
    """Point-in-time statistics reported by :meth:`ChunkStore.stats`."""

    live_bytes: int
    capacity_bytes: int
    utilization: float
    db_file_bytes: int
    segment_count: int
    free_slots: int
    residual_bytes: int
    commit_seqno: int
    counter_value: int
    next_chunk_id: int
    commits_total: int
    durable_commits_total: int
    checkpoints_total: int
    cleaner: CleanerStats = field(default_factory=CleanerStats)
    possible_lost_commit: bool = False


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


class _RetireEvent:
    """A dead-space credit waiting on snapshot releases / durability."""

    __slots__ = ("segment", "nbytes", "refs")

    def __init__(self, segment: int, nbytes: int, refs: int) -> None:
        self.segment = segment
        self.nbytes = nbytes
        self.refs = refs


class _StoreNodeIO(NodeIO):
    """Loads and appends location-map nodes on behalf of the map."""

    def __init__(self, store: "ChunkStore") -> None:
        self.store = store

    def load_node(self, locator: Locator, level: int, index: int) -> MapNode:
        plaintext = self.store.read_payload(locator)
        node = MapNode.deserialize(plaintext, self.store.hash_size)
        if (node.level, node.index) != (level, index):
            raise TamperDetectedError(
                f"map node identity mismatch: stored ({node.level}, {node.index}),"
                f" expected ({level}, {index})"
            )
        return node

    def append_node(self, level: int, index: int, plaintext: bytes) -> Locator:
        return self.store._append_map_node(level, index, plaintext)


class ChunkStore:
    """Trusted storage for named chunks over an untrusted store."""

    def __init__(self, *args, **kwargs) -> None:
        raise ChunkStoreError(
            "use ChunkStore.format(...) or ChunkStore.open(...) to construct"
        )

    @classmethod
    def _new(
        cls,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: ChunkStoreConfig,
        cache: Optional[SharedLruCache],
    ) -> "ChunkStore":
        self = object.__new__(cls)
        self.untrusted = untrusted
        self.secret_store = secret_store
        self.counter = counter
        self.config = config
        self.secure = config.security.enabled
        self.perf = PerfStats()
        if self.secure:
            self.hash_engine = InstrumentedHashEngine(
                create_hash_engine(config.security.hash_name), self.perf
            )
            self.hash_size = self.hash_engine.digest_size
            self.cipher = InstrumentedPayloadCipher(
                create_payload_cipher(
                    config.security.cipher_name,
                    secret_store.derive_key("tdb-chunk-encryption", 32),
                ),
                self.perf,
            )
            self._record_mac = create_mac(
                secret_store.derive_key("tdb-log-mac", 32), config.security.hash_name
                if config.security.hash_name in ("sha1", "sha256") else "sha1"
            )
            self._master_mac = create_mac(
                secret_store.derive_key("tdb-master-mac", 32), "sha256"
            )
        else:
            self.hash_engine = None
            self.hash_size = 0
            self.cipher = create_payload_cipher("null", b"")
            self._record_mac = None
            self._master_mac = None
        untrusted.stats.attach_section("perf", self.perf.as_dict)
        self.cache = cache or SharedLruCache(MAP_CACHE_ENTRIES * 4096)
        self.node_io = _StoreNodeIO(self)
        self.master_io = MasterIO(untrusted, self._master_mac)
        self.cleaner = Cleaner(self)
        self._lock = threading.RLock()
        self._closed = False
        self._seqno = 0
        self._counter_value = 0
        self._next_cid = 0
        self._free_cids: List[int] = []
        self._pending_cids: set = set()
        self._generation = 0
        self._db_uuid = b"\x00" * 16
        self._residual_bytes = 0
        self._snapshots: Dict[int, Snapshot] = {}
        self._snapshot_pending: Dict[int, List[_RetireEvent]] = {}
        self._nondurable_pending: List[_RetireEvent] = []
        self._next_snapshot_id = 1
        self._commits_total = 0
        self._durable_commits_total = 0
        self._checkpoints_total = 0
        self._app_payload_bytes = 0
        self.possible_lost_commit = False
        self._salvage = False
        self._read_only = False
        self.salvage_info: Optional[SalvageInfo] = None
        self.transparency: Optional[TransparencyLog] = None
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig] = None,
        cache: Optional[SharedLruCache] = None,
    ) -> "ChunkStore":
        """Create a fresh database; the untrusted store must be empty."""
        config = config or ChunkStoreConfig()
        leftovers = [
            name
            for name in untrusted.list_files()
            if name in MASTER_FILES or name.startswith("seg-")
        ]
        if leftovers:
            raise ChunkStoreError(
                f"untrusted store already holds a database: {leftovers[:4]}"
            )
        self = cls._new(untrusted, secret_store, counter, config, cache)
        self._db_uuid = os.urandom(16)
        genesis = (
            self.hash_engine.digest(b"tdb-genesis" + self._db_uuid)
            if self.secure
            else b""
        )
        self._build_log(genesis)
        self.segments.create_first_segment()
        if config.initial_segments > 1:
            self.segments.preallocate_free_slots(config.initial_segments - 1)
        self._counter_value = counter.read() if self.secure else 0
        if self.secure:
            self.transparency = TransparencyLog.create(
                untrusted, secret_store, self._db_uuid, self.hash_size
            )
        self.checkpoint(force=True)
        return self

    @classmethod
    def open(
        cls,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig] = None,
        cache: Optional[SharedLruCache] = None,
        read_only: bool = False,
    ) -> "ChunkStore":
        """Open an existing database, recovering from the residual log.

        A writable open is the only open that repairs the media: it cuts
        the discarded log tail off the files and resyncs a counter that
        a crash left one behind (:attr:`possible_lost_commit`).

        With ``read_only=True`` (a replica serving a verified shipped
        image; ``tools`` reading a primary's live directory) the open
        runs the same replay and the same checks but writes nothing: the
        recovered log end is kept in memory, the head log is only
        loaded, and a counter one behind raises
        :class:`TamperDetectedError` instead of being advanced.
        Afterwards every mutating operation raises
        :class:`ReadOnlyStoreError` and ``close()``/``scrub()`` write no
        checkpoint, so the files stay byte-identical.
        """
        return cls._open(untrusted, secret_store, counter, config, cache,
                         read_only=read_only, salvage=False)

    @classmethod
    def open_salvage(
        cls,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig] = None,
        cache: Optional[SharedLruCache] = None,
    ) -> "ChunkStore":
        """Open a possibly damaged database read-only, best effort.

        Like a read-only :meth:`open`, salvage runs the one replay and
        writes nothing.  Unlike it, salvage never raises for damage it
        can route around: a bad residual-log record degrades to the
        chain-valid prefix, a record the damaged map cannot absorb ends
        the replay there, and a counter mismatch is recorded in
        :attr:`salvage_info` instead of raising.  Every chunk
        whose Merkle path still verifies is readable; damaged ones keep
        raising on access and are enumerated by :meth:`scrub`.

        Only a usable master record is required — with both master
        copies gone there is no root of trust left to serve anything
        from, and :class:`RecoveryError`/:class:`TamperDetectedError`
        propagates.
        """
        return cls._open(untrusted, secret_store, counter, config, cache,
                         read_only=False, salvage=True)

    @classmethod
    def _open(
        cls,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig],
        cache: Optional[SharedLruCache],
        read_only: bool,
        salvage: bool,
    ) -> "ChunkStore":
        """The body :meth:`open` and :meth:`open_salvage` share."""
        config = config or ChunkStoreConfig()
        self = cls._new(untrusted, secret_store, counter, config, cache)
        self._read_only = read_only
        self._salvage = salvage
        master = self.master_io.load_latest()
        self._validate_master_config(master)
        self._db_uuid = master.db_uuid
        self._generation = master.generation
        self._build_log(master.chain_anchor, master.depth, master.root)
        self._replay(master)
        if not salvage:
            # Replay/counter checks first: a stale whole-image replay must
            # surface as ReplayDetectedError, not as a head-log anomaly.
            self._attach_transparency(master)
        return self

    def _build_log(
        self, chain: bytes, depth: int = 1, root: Optional[Locator] = None
    ) -> None:
        """The record codec, segment manager and location map."""
        self.codec = RecordCodec(self.hash_engine, self._record_mac, chain=chain)
        self.segments = SegmentManager(
            self.untrusted, self.codec, self.config.segment_size
        )
        self.segments.sync_enabled = self.config.fsync
        self.location_map = LocationMap(
            node_io=self.node_io,
            fanout=self.config.map_fanout,
            hash_size=self.hash_size,
            cache=self.cache,
            depth=depth,
            root_locator=root,
        )

    def _validate_master_config(self, master: MasterRecord) -> None:
        if master.segment_size != self.config.segment_size:
            raise ChunkStoreError(
                f"segment size mismatch: store {master.segment_size}, "
                f"config {self.config.segment_size}"
            )
        if master.map_fanout != self.config.map_fanout:
            raise ChunkStoreError(
                f"map fanout mismatch: store {master.map_fanout}, "
                f"config {self.config.map_fanout}"
            )
        if master.secure != self.secure:
            raise ChunkStoreError(
                "security profile mismatch between store and configuration"
            )
        if master.hash_size != self.hash_size:
            raise ChunkStoreError(
                f"hash size mismatch: store {master.hash_size}, "
                f"config {self.hash_size}"
            )

    def _attach_transparency(self, master: MasterRecord) -> None:
        """Load, verify, and catch up the signed head log at open.

        The head is appended *after* the master reaches the media, so a
        crash can only leave the log lagging (or with a torn tail) —
        never ahead.  A writable open therefore treats a tip newer than
        the master as a rolled-back database image, and a same-
        generation tip must match the master exactly.  Read-only opens
        (replicas serving verified shipped images) only load: the
        applier mirrors the primary's log and cross-checks it itself,
        and a replica image staged without a log is still bound by the
        counter check.
        """
        if not self.secure:
            return
        read_only = self._read_only
        if not TransparencyLog.exists(self.untrusted):
            if read_only:
                return
            # Upgrade path: a database formatted before head logging.
            self.transparency = TransparencyLog.create(
                self.untrusted, self.secret_store, self._db_uuid, self.hash_size
            )
            self._append_head(master)
            return
        log = TransparencyLog.load(
            self.untrusted,
            self.secret_store,
            self._db_uuid,
            self.hash_size,
            writable=not read_only,
        )
        self.transparency = log
        tip = log.tip()
        if read_only:
            return
        if tip is not None and tip.generation > master.generation:
            # Two ways the log can lead the master: the image was rolled
            # back (tampering), or the newest master copy was lost and
            # the dual-master fallback engaged.  The counter check above
            # already ruled out lost commits, so if this exact master is
            # on the signed history the fallback is benign — drop the
            # orphaned newer heads and re-sign from here.
            anchor = log.entry_for_generation(master.generation)
            if anchor is None or not self._head_signs(anchor, master):
                raise TamperDetectedError(
                    f"head log tip is generation {tip.generation} but the "
                    f"master record is generation {master.generation}: the "
                    "database image was rolled back"
                )
            log.truncate_to(anchor.index)
            return
        if tip is not None and tip.generation == master.generation:
            if not self._head_signs(tip, master):
                raise TamperDetectedError(
                    f"head log tip for generation {tip.generation} does "
                    "not match the master record it claims to sign"
                )
            return
        # The log lags (crash between master write and head append, or
        # a torn head append): catch up from the authenticated master.
        self._append_head(master)

    def _head_signs(self, head, master: MasterRecord) -> bool:
        """Whether a signed head names exactly this master's tree."""
        root = master.root
        return (
            head.seqno == master.commit_seqno
            and head.depth == master.depth
            and head.root_digest == (
                root.hash_value if root is not None else bytes(self.hash_size)
            )
            and head.empty_root == (root is None)
        )

    def _append_head(self, master: MasterRecord) -> None:
        self.transparency.append(
            generation=master.generation,
            seqno=master.commit_seqno,
            counter=master.expected_counter,
            depth=master.depth,
            root_digest=(
                master.root.hash_value if master.root is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _replay(self, master: MasterRecord) -> None:
        """Recovery (paper section 3): one procedure for every open.

        Adopts the master's segment table, applies the residual log up
        to its last durable commit (everything after it is discarded,
        which implements the nondurable-commit guarantee), and checks
        the one-way counter.  Salvage scans tolerantly, stops instead of
        raising at the first record it cannot apply, and records the
        counter in :attr:`salvage_info` instead of checking it.  All of
        this happens in memory; only a writable open then makes the
        files match (:meth:`_repair_media`).
        """
        salvage = self._salvage
        self.segments.segments = {
            info.number: replace(info) for info in master.segments
        }
        scan = scan_residual_log(
            self.untrusted,
            self.codec,
            master.anchor_segment,
            master.anchor_offset,
            self.hash_size,
            tolerant=salvage,
        )
        cutoff = 0
        for idx, record in enumerate(scan.records):
            if record.kind == RecordKind.COMMIT and record.body.durable:
                cutoff = idx + 1

        self._seqno = master.commit_seqno
        self._counter_value = master.expected_counter
        self._next_cid = master.next_chunk_id
        applied = 0
        apply_stop: Optional[str] = None
        for record in scan.records[:cutoff]:
            try:
                self._apply_record(record)
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

        # Segments opened by discarded records: a recycled free slot is
        # free again, a brand-new segment's file is an orphan.
        orphans = []
        for record in discarded:
            if record.kind != RecordKind.SEG_HEADER:
                continue
            info = self.segments.segments.get(record.body.segment)
            if info is None:
                orphans.append(record.body.segment)
            elif not info.is_tail:
                info.reset_for_reuse()
                info.is_free = True

        # The scan advanced the codec past the discarded records too; the
        # next append chains from the last kept one.
        tail_segment, tail_offset = master.anchor_segment, master.anchor_offset
        self.codec.chain = master.chain_anchor
        if kept:
            tail_segment, tail_offset = kept[-1].segment, kept[-1].end_offset
            self.codec.chain = kept[-1].chain_after
        self.segments.restore(
            tail_segment,
            tail_offset,
            max(
                [master.next_segment_number]
                + [number + 1 for number in self.segments.segments]
            ),
            {master.anchor_segment} | {record.segment for record in kept},
        )
        self._reconcile_segments()
        if salvage:
            self.salvage_info = SalvageInfo(
                counter_expected=self._counter_value,
                counter_actual=(
                    self.counter.read() if self.secure else self._counter_value
                ),
                commits_applied=sum(
                    1 for record in kept if record.kind == RecordKind.COMMIT
                ),
                commits_discarded=sum(
                    1 for record in discarded if record.kind == RecordKind.COMMIT
                ),
                scan_stop_reason=scan.stop_reason,
                apply_stop_reason=apply_stop,
            )
            return
        self._check_counter()
        if not self._read_only:
            self._repair_media(orphans)

    def _digest_payload(self, data: bytes) -> bytes:
        """Content digest of a chunk or map-node payload."""
        return self.hash_engine.digest(data)

    def _apply_record(self, record) -> None:
        """Fold one residual-log record into the segment table and map."""
        info = self.segments.segments.get(record.segment)
        if record.kind == RecordKind.SEG_HEADER:
            if info is None:
                info = SegmentInfo(number=record.segment)
                self.segments.segments[record.segment] = info
            else:
                info.reset_for_reuse()
        if info is None:
            raise RecoveryError(
                f"residual log touches unknown segment {record.segment}"
            )
        payload_bytes = 0
        if record.kind == RecordKind.COMMIT:
            payload_bytes = self._apply_commit(record)
        info.file_bytes = max(info.file_bytes, record.end_offset)
        info.overhead_bytes += record.total_size - payload_bytes

    def _apply_commit(self, record) -> int:
        """Redo one commit record; return its payload byte count."""
        body: CommitBody = record.body
        info = self.segments.segments[record.segment]
        for item, rel_offset in zip(body.writes, body.payload_offsets):
            locator = Locator(
                segment=record.segment,
                offset=record.offset + rel_offset,
                length=len(item.payload),
                hash_value=(
                    self._digest_payload(item.payload) if self.secure else b""
                ),
            )
            info.accountable_bytes += len(item.payload)
            old = self.location_map.set(item.chunk_id, locator)
            if old is not None:
                self.segments.mark_dead(old.segment, old.length)
        for chunk_id in body.deallocs:
            old = self.location_map.remove(chunk_id)
            if old is not None:
                self.segments.mark_dead(old.segment, old.length)
        self._seqno = max(self._seqno, body.seqno)
        self._counter_value = max(self._counter_value, body.expected_counter)
        self._next_cid = max(self._next_cid, body.next_chunk_id)
        return sum(len(item.payload) for item in body.writes)

    def _reconcile_segments(self) -> None:
        """Compare the segment table against the actual files.

        A segment the cleaner freed after the last checkpoint has a
        truncated (or missing) file but zero live bytes after replay —
        it becomes a free slot.  A short file with live bytes means the
        attacker destroyed data: tamper detected (salvage leaves it to
        scrub, which names the chunks that are gone).
        """
        for info in self.segments.segments.values():
            if info.is_tail or info.is_free:
                continue
            name = segment_file_name(info.number)
            actual = self.untrusted.size(name) if self.untrusted.exists(name) else -1
            if actual == info.file_bytes:
                continue
            if info.live_bytes == 0:
                info.reset_for_reuse()
                info.is_free = True
            elif not self._salvage:
                raise TamperDetectedError(
                    f"segment {info.number} is truncated or missing "
                    f"({actual} bytes on disk, {info.file_bytes} recorded) "
                    f"with {info.live_bytes} live bytes"
                )

    def _check_counter(self) -> None:
        """The replay-attack check (paper section 3)."""
        if not self.secure:
            return
        expected = self._counter_value
        actual = self.counter.read()
        if actual == expected:
            return
        if actual == expected - 1:
            if self._read_only:
                raise TamperDetectedError(
                    f"one-way counter is at {actual} but the newest durable "
                    f"commit expects {expected}; after a crash between that "
                    "commit's sync and its counter advance only a writable "
                    "open may resync the counter"
                )
            # The crash hit between the commit record reaching the log and
            # the counter bump; resync the counter.  The commit itself had
            # not reported success, so no acknowledged state is lost.
            self.counter.increment()
            self.possible_lost_commit = True
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

    def _repair_media(self, orphans: List[int]) -> None:
        """Make the files match the recovered state (writable opens only).

        Deletes segment files that only discarded records created,
        empties every free slot, and cuts the tail back to the recovered
        log end, which restores "file length == log bytes" for the next
        append.
        """
        for number in orphans:
            name = segment_file_name(number)
            if self.untrusted.exists(name):
                self.untrusted.delete(name)
        for info in self.segments.segments.values():
            name = segment_file_name(info.number)
            if info.is_tail:
                if self.untrusted.size(name) > info.file_bytes:
                    self.untrusted.truncate(name, info.file_bytes)
            elif info.is_free:
                if not self.untrusted.exists(name):
                    self.untrusted.write(name, 0, b"")
                elif self.untrusted.size(name) > 0:
                    self.untrusted.truncate(name, 0)

    # ------------------------------------------------------------------
    # Chunk operations (Figure 2 interface)
    # ------------------------------------------------------------------

    def allocate_chunk_id(self) -> int:
        """Return an unallocated chunk id (reuses deallocated ids)."""
        with self._lock:
            self._check_open()
            self._check_writable()
            if self._free_cids:
                cid = self._free_cids.pop()
            else:
                cid = self._next_cid
                self._next_cid += 1
            self._pending_cids.add(cid)
            return cid

    def release_chunk_id(self, chunk_id: int) -> None:
        """Return an allocated-but-never-written id to the free pool.

        Used when a transaction that inserted objects aborts: the chunk
        ids it allocated were never committed, so they can be reused
        immediately (paper section 4.2.3).
        """
        with self._lock:
            self._check_open()
            if chunk_id in self._pending_cids:
                self._pending_cids.discard(chunk_id)
                self._free_cids.append(chunk_id)

    def adopt_chunk_id(self, chunk_id: int) -> None:
        """Mark a specific id as allocated (backup-restore entry point).

        Restoring a backup must recreate chunks under their original ids
        so that inter-chunk references (object ids) stay valid.
        """
        with self._lock:
            self._check_open()
            self._check_writable()
            if chunk_id < 0:
                raise ChunkStoreError("chunk ids are non-negative")
            self._pending_cids.add(chunk_id)
            self._next_cid = max(self._next_cid, chunk_id + 1)

    def read(self, chunk_id: int) -> bytes:
        """Return the last committed state of ``chunk_id``."""
        with self._lock:
            self._check_open()
            locator = self.location_map.lookup(chunk_id)
            if locator is None:
                raise ChunkNotFoundError(f"chunk {chunk_id} is not written")
            return self.read_payload(locator)

    def write(self, chunk_id: int, data: bytes, durable: bool = True) -> None:
        """Single-chunk commit (see :meth:`commit` for batches)."""
        self.commit({chunk_id: data}, durable=durable)

    def deallocate(self, chunk_id: int, durable: bool = True) -> None:
        """Deallocate one chunk id along with its state."""
        self.commit({}, deallocs=[chunk_id], durable=durable)

    def contains(self, chunk_id: int) -> bool:
        with self._lock:
            self._check_open()
            return self.location_map.lookup(chunk_id) is not None

    def chunk_ids(self) -> List[int]:
        """All written chunk ids, ascending."""
        with self._lock:
            self._check_open()
            return [cid for cid, _ in self.location_map.iterate()]

    def commit(
        self,
        writes: Mapping[int, bytes],
        deallocs: Iterable[int] = (),
        durable: bool = True,
    ) -> None:
        """Atomically apply a batch of chunk writes and deallocations."""
        with self._lock:
            self._check_open()
            self._check_writable()
            deallocs = list(deallocs)
            if not writes and not deallocs:
                return
            self._validate_commit_ids(writes, deallocs)
            items = [
                CommitItem(chunk_id, self.cipher.encrypt(bytes(data)))
                for chunk_id, data in sorted(writes.items())
            ]
            self._commit_items(items, deallocs, durable, from_cleaner=False)
            for chunk_id in writes:
                self._pending_cids.discard(chunk_id)
            for chunk_id in deallocs:
                self._pending_cids.discard(chunk_id)
                self._free_cids.append(chunk_id)
            self._after_commit()

    def commit_raw_payloads(self, items: List[Tuple[int, bytes]]) -> None:
        """Cleaner entry point: relocate already-encrypted payloads."""
        with self._lock:
            self._check_open()
            self._check_writable()
            commit_items = [CommitItem(cid, payload) for cid, payload in items]
            self._commit_items(commit_items, [], durable=True, from_cleaner=True)

    def _validate_commit_ids(self, writes: Mapping[int, bytes], deallocs) -> None:
        for chunk_id in writes:
            if chunk_id in self._pending_cids:
                continue
            if self.location_map.lookup(chunk_id) is None:
                raise ChunkStoreError(
                    f"write to unallocated chunk id {chunk_id}"
                )
        seen = set(writes)
        for chunk_id in deallocs:
            if chunk_id in seen:
                raise ChunkStoreError(
                    f"chunk {chunk_id} both written and deallocated in one commit"
                )
            seen.add(chunk_id)
            if (
                chunk_id not in self._pending_cids
                and self.location_map.lookup(chunk_id) is None
            ):
                raise ChunkStoreError(
                    f"deallocate of unallocated chunk id {chunk_id}"
                )

    def _commit_items(
        self,
        items: List[CommitItem],
        deallocs: List[int],
        durable: bool,
        from_cleaner: bool,
    ) -> None:
        self._seqno += 1
        bump_counter = durable and self.secure
        expected = self._counter_value + (1 if bump_counter else 0)
        body_obj = CommitBody(
            seqno=self._seqno,
            durable=durable,
            from_cleaner=from_cleaner,
            expected_counter=expected,
            next_chunk_id=self._next_cid,
            writes=items,
            deallocs=deallocs,
        )
        body = body_obj.encode()
        accountable = sum(len(item.payload) for item in items)
        if not from_cleaner:
            self._app_payload_bytes += accountable
        segment, offset = self.segments.append_record(
            RecordKind.COMMIT, body, accountable
        )
        self._residual_bytes += self.codec.record_size(len(body))
        rel_offsets = body_obj.encoded_payload_offsets(self.codec.header_size)
        for item, rel in zip(items, rel_offsets):
            locator = Locator(
                segment=segment,
                offset=offset + rel,
                length=len(item.payload),
                hash_value=(
                    self._digest_payload(item.payload) if self.secure else b""
                ),
            )
            old = self.location_map.set(item.chunk_id, locator)
            if old is not None:
                self._retire(old, commit_durable=durable)
        for chunk_id in deallocs:
            old = self.location_map.remove(chunk_id)
            if old is not None:
                self._retire(old, commit_durable=durable)
        self._commits_total += 1
        if durable:
            self._durable_commits_total += 1
            self.segments.sync_dirty()
            if bump_counter:
                self.counter.increment()
                self._counter_value += 1
            self._flush_nondurable_pending()

    def _after_commit(self) -> None:
        if self._residual_bytes >= self.config.checkpoint_residual_bytes:
            self.checkpoint()
        self._space_policy()

    # ------------------------------------------------------------------
    # Reads (shared with snapshots and the map)
    # ------------------------------------------------------------------

    def read_payload(self, locator: Locator) -> bytes:
        """Fetch, validate, and decrypt the payload a locator points at."""
        data = self.segments.read(locator.segment, locator.offset, locator.length)
        if self.secure:
            if self._digest_payload(data) != locator.hash_value:
                raise TamperDetectedError(
                    f"chunk payload at segment {locator.segment} offset "
                    f"{locator.offset} failed hash validation"
                )
        return self.cipher.decrypt(data)

    def read_payload_raw(self, locator: Locator) -> bytes:
        """Digest-verified *ciphertext* bytes a locator points at.

        The proof service's read: lock-free by the same argument as
        :meth:`read_segment_bytes` — proofs are only built against
        pinned checkpointed state, whose locators reference sealed
        bytes that concurrent commits never rewrite in place.
        """
        data = self.untrusted.read(
            segment_file_name(locator.segment), locator.offset, locator.length
        )
        if self.secure and self._digest_payload(data) != locator.hash_value:
            raise TamperDetectedError(
                f"chunk payload at segment {locator.segment} offset "
                f"{locator.offset} failed hash validation"
            )
        return data

    # ------------------------------------------------------------------
    # Scrubbing (Merkle-tree verification with damage localization)
    # ------------------------------------------------------------------

    def scrub(self) -> DamageReport:
        """Verify every reachable map node and chunk payload from media.

        A writable store is checkpointed first so the on-disk tree equals
        the logical tree; a salvage store is walked as reconstructed.
        Every payload is re-read and re-hashed, exactly as a read checks
        it, so bytes flipped since any earlier scrub are found.
        Damage is *reported*, never raised: the returned
        :class:`~repro.chunkstore.scrub.DamageReport` lists damaged chunk
        ids, map-node coordinates with the chunk-id ranges they covered,
        and the segments involved.
        """
        with self._lock:
            self._check_open()
            if not self._salvage and not self._read_only:
                self.checkpoint(force=True)
            report, _ = scrub_store(self)
            return report

    def export_surviving(self) -> Tuple[DamageReport, Dict[int, bytes]]:
        """Scrub and return the plaintext of every chunk that verifies.

        The salvage-export path: an embedding application gets whatever
        state the damage spared (meters, balances) plus the report of
        what was lost.
        """
        with self._lock:
            self._check_open()
            if not self._salvage and not self._read_only:
                self.checkpoint(force=True)
            return scrub_store(self, collect=True)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, force: bool = False) -> None:
        """Write dirty map nodes and a fresh master record.

        Runs as the paper's "opportunistic" map flush: recovery afterwards
        replays only the log written after this point.
        """
        with self._lock:
            self._check_open()
            self._check_writable()
            if (
                not force
                and not self.location_map.has_dirty_nodes()
                and self._residual_bytes == 0
            ):
                return
            root, retired = self.location_map.checkpoint(self.node_io.append_node)
            for locator in retired:
                self._retire(locator, commit_durable=True)
            self._seqno += 1
            checkpoint_body = CheckpointBody(
                seqno=self._seqno,
                expected_counter=self._counter_value,
                next_chunk_id=self._next_cid,
                depth=self.location_map.depth,
                root=root,
            )
            self.segments.append_record(
                RecordKind.CHECKPOINT, checkpoint_body.encode(self.hash_size)
            )
            self.segments.sync_dirty()
            # The checkpoint is a durability barrier: nondurable commits
            # captured by the flushed map can no longer roll back, so
            # their deferred retirements must land *before* the segment
            # table is snapshotted into the master.  Flushing after the
            # master write under-counts dead bytes on disk, and replay
            # then mistakes a legitimately recycled segment for one the
            # attacker truncated (a false TamperDetectedError).
            self._flush_nondurable_pending()
            self._generation += 1
            master = MasterRecord(
                generation=self._generation,
                db_uuid=self._db_uuid,
                segment_size=self.config.segment_size,
                map_fanout=self.config.map_fanout,
                hash_size=self.hash_size,
                secure=self.secure,
                depth=self.location_map.depth,
                root=root,
                next_chunk_id=self._next_cid,
                commit_seqno=self._seqno,
                expected_counter=self._counter_value,
                next_segment_number=self.segments.next_segment_number,
                anchor_segment=self.segments.tail_segment,
                anchor_offset=self.segments.tail_offset,
                chain_anchor=self.codec.chain,
                segments=self.segments.snapshot_infos(),
            )
            self.master_io.write(master, sync=self.config.fsync)
            # The head goes to the log only after the master is on the
            # media: a crash between the two leaves the log *lagging*,
            # which the next open heals by catching up from the master —
            # a log ahead of the master can then only mean rollback.
            if self.transparency is not None:
                self._append_head(master)
            self.segments.end_checkpoint()
            self._residual_bytes = 0
            self._checkpoints_total += 1

    def _append_map_node(self, level: int, index: int, plaintext: bytes) -> Locator:
        payload = self.cipher.encrypt(plaintext)
        body = MapNodeBody(level=level, index=index, payload=payload).encode()
        segment, offset = self.segments.append_record(
            RecordKind.MAP_NODE, body, accountable_bytes=len(payload)
        )
        self._residual_bytes += self.codec.record_size(len(body))
        payload_offset = offset + MapNodeBody.payload_offset_in_record(
            self.codec.header_size
        )
        return Locator(
            segment=segment,
            offset=payload_offset,
            length=len(payload),
            hash_value=self._digest_payload(payload) if self.secure else b"",
        )

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------

    def _space_policy(self) -> None:
        """The grow-or-clean decision of section 3.2.1.

        Keep at least one free slot ready for the next tail switch.  When
        utilization is below the configured maximum, bounded cleaning
        recycles dead space; when it is above, the store grows instead
        (a new slot is allocated implicitly at the next tail switch),
        which bounds per-commit cleaning cost.
        """
        if self.segments.free_slot_count() == 0:
            if self.segments.utilization() < self.config.max_utilization:
                self.cleaner.clean_pass(CLEANER_SEGMENTS_PER_PASS)
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
        if self.segments.utilization() < self.config.max_utilization * 0.95:
            target = min(self.config.max_utilization, 0.95)
            amplification = target / max(0.05, 1.0 - target)
            allowance = amplification * self._app_payload_bytes
            if self.cleaner.stats.bytes_copied >= allowance:
                return
            victims = self.segments.cleanable_segments()
            best_dead = max(
                (info.dead_bytes for info in victims), default=0
            )
            if best_dead >= self.config.segment_size // 4:
                self.cleaner.clean_pass(CLEANER_SEGMENTS_PER_PASS)
        self._shrink_free_slots()

    def clean(self, max_segments: Optional[int] = None) -> int:
        """Run one explicit cleaning pass; return segments recycled."""
        with self._lock:
            self._check_open()
            self._check_writable()
            return self.cleaner.clean_pass(
                max_segments or CLEANER_SEGMENTS_PER_PASS
            )

    def idle_maintenance(self, max_passes: int = 16) -> dict:
        """Run deferred reorganization during an idle period.

        The paper leans on DRM workloads' long idle times: "some of the
        database reorganization (such as log checkpointing) can be
        deferred until idle time" (section 1).  This entry point
        checkpoints the location map and runs cleaning passes until the
        utilization bound is met, nothing is reclaimable, or the pass
        budget runs out.  Returns a small report dict.
        """
        with self._lock:
            self._check_open()
            self._check_writable()
            report = {"checkpointed": False, "segments_freed": 0, "passes": 0}
            if self.location_map.has_dirty_nodes() or self._residual_bytes:
                self.checkpoint()
                report["checkpointed"] = True
            for _ in range(max_passes):
                if self.segments.utilization() >= self.config.max_utilization:
                    break
                victims = self.segments.cleanable_segments()
                if not any(info.dead_bytes > 0 for info in victims):
                    break
                freed = self.cleaner.clean_pass(CLEANER_SEGMENTS_PER_PASS)
                report["passes"] += 1
                report["segments_freed"] += freed
                self._shrink_free_slots()
                if freed == 0:
                    break
            self._shrink_free_slots()
            return report

    def _shrink_free_slots(self) -> None:
        """Return excess free slots while the database would stay within
        its utilization bound, so total size tracks
        live / max_utilization (the trade-off Figure 11 sweeps)."""
        live = self.segments.live_bytes()
        while self.segments.free_slot_count() > 1:
            capacity_after = self.segments.capacity_bytes() - self.config.segment_size
            if capacity_after <= 0 or live / capacity_after > self.config.max_utilization:
                break
            if len(self.segments.segments) <= max(2, self.config.initial_segments):
                break
            free_numbers = [
                info.number
                for info in self.segments.segments.values()
                if info.is_free
            ]
            self.segments.drop_slot(max(free_numbers))

    def _retire(self, locator: Locator, commit_durable: bool) -> None:
        """Account an obsolete payload, honouring deferral rules.

        Space obsoleted by a nondurable commit stays unreclaimable until
        a durable commit (section 3.2.2); space a snapshot can still
        reach stays unreclaimable until the snapshot is released.
        """
        pinning = [
            snap
            for snap in self._snapshots.values()
            if locator.segment in snap.pinned_segments
        ]
        refs = len(pinning) + (0 if commit_durable else 1)
        if refs == 0:
            self.segments.mark_dead(locator.segment, locator.length)
            return
        event = _RetireEvent(locator.segment, locator.length, refs)
        if not commit_durable:
            self._nondurable_pending.append(event)
        for snap in pinning:
            self._snapshot_pending[snap.snapshot_id].append(event)

    def _release_event(self, event: _RetireEvent) -> None:
        event.refs -= 1
        if event.refs == 0:
            self.segments.mark_dead(event.segment, event.nbytes)

    def _flush_nondurable_pending(self) -> None:
        pending, self._nondurable_pending = self._nondurable_pending, []
        for event in pending:
            self._release_event(event)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Freeze the current state for backup (copy-on-write)."""
        with self._lock:
            self._check_open()
            self._check_writable()
            self.checkpoint(force=True)
            snapshot_id = self._next_snapshot_id
            self._next_snapshot_id += 1
            pinned = {
                info.number
                for info in self.segments.segments.values()
                if not info.is_free
            }
            snap = Snapshot(
                store=self,
                snapshot_id=snapshot_id,
                root=self.location_map.root_locator,
                depth=self.location_map.depth,
                pinned_segments=pinned,
                commit_seqno=self._seqno,
            )
            self._snapshots[snapshot_id] = snap
            self._snapshot_pending[snapshot_id] = []
            return snap

    def release_snapshot(self, snap: Snapshot) -> None:
        with self._lock:
            if snap.snapshot_id not in self._snapshots:
                return
            del self._snapshots[snap.snapshot_id]
            for event in self._snapshot_pending.pop(snap.snapshot_id, []):
                self._release_event(event)
            self.cache.clear_namespace(f"snap-{snap.snapshot_id}")
            snap.released = True

    def active_snapshots(self) -> List[Snapshot]:
        return list(self._snapshots.values())

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ChunkStoreStats:
        with self._lock:
            self._check_open()
            return ChunkStoreStats(
                live_bytes=self.segments.live_bytes(),
                capacity_bytes=self.segments.capacity_bytes(),
                utilization=self.segments.utilization(),
                db_file_bytes=self.untrusted.total_bytes(),
                segment_count=len(self.segments.segments),
                free_slots=self.segments.free_slot_count(),
                residual_bytes=self._residual_bytes,
                commit_seqno=self._seqno,
                counter_value=self._counter_value,
                next_chunk_id=self._next_cid,
                commits_total=self._commits_total,
                durable_commits_total=self._durable_commits_total,
                checkpoints_total=self._checkpoints_total,
                cleaner=self.cleaner.stats,
                possible_lost_commit=self.possible_lost_commit,
            )

    def close(self) -> None:
        """Checkpoint and shut down; further operations raise."""
        with self._lock:
            if self._closed:
                return
            for snap in list(self._snapshots.values()):
                self.release_snapshot(snap)
            if not self._salvage and not self._read_only:
                self.checkpoint()
                self.segments.sync_dirty()
            self._closed = True

    def __enter__(self) -> "ChunkStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ChunkStoreError("chunk store is closed")

    def _check_writable(self) -> None:
        if self._salvage:
            raise SalvageReadOnlyError(
                "store was opened in read-only salvage mode"
            )
        if self._read_only:
            raise ReadOnlyStoreError(
                "store was opened read-only (replica mode)"
            )

    @property
    def salvage(self) -> bool:
        """Whether this store was opened read-only via :meth:`open_salvage`."""
        return self._salvage

    @property
    def read_only(self) -> bool:
        """Whether this store was opened with ``read_only=True``."""
        return self._read_only

    @property
    def db_uuid(self) -> bytes:
        """The immutable identity this store was formatted with."""
        return self._db_uuid

    @property
    def generation(self) -> int:
        """Generation of the newest durable master record."""
        with self._lock:
            return self._generation

    @property
    def commit_seqno(self) -> int:
        """Sequence number of the newest commit."""
        with self._lock:
            return self._seqno

    # ------------------------------------------------------------------
    # Replication export hooks
    # ------------------------------------------------------------------

    def read_segment_bytes(self, number: int, offset: int, length: int) -> bytes:
        """Raw media bytes of a segment prefix, for replication shipping.

        The shipper only asks for ranges below the ``file_bytes`` a
        pinned snapshot's master record recorded for the segment: sealed
        segments are immutable and the tail only *grows* past that
        point, so the range is stable under concurrent commits.
        """
        name = segment_file_name(number)
        return self.untrusted.read(name, offset, length)

    def begin_shipment(
        self,
        last_generation: Optional[int] = None,
        last_seqno: Optional[int] = None,
    ) -> Optional["ShipmentAnchor"]:
        """Atomically anchor a replication shipment.

        Checkpoints, takes a pinned snapshot, and captures — all under
        one lock acquisition, so they describe the same instant — the
        master blob, identity/counter state, and the per-segment sizes
        the just-written master recorded.  The caller owns the returned
        anchor's snapshot and must release it.

        If the subscriber already holds ``(last_generation, last_seqno)``
        and no commit has happened since, returns ``None`` instead of
        burning a checkpoint per poll (a forced checkpoint always
        advances the generation, so re-anchoring an unchanged store
        would churn forever).
        """
        with self._lock:
            self._check_open()
            if (
                last_generation is not None
                and last_generation == self._generation
                and last_seqno == self._seqno
            ):
                return None
            snap = self.snapshot()  # checkpoint(force=True) + pin
            master_name = MASTER_FILES[self._generation % 2]
            master_blob = self.untrusted.read(master_name)
            segments = [
                SegmentExportInfo(
                    number=info.number,
                    file_bytes=info.file_bytes,
                    is_tail=info.is_tail,
                )
                for info in self.segments.segments.values()
                if not info.is_free
            ]
            return ShipmentAnchor(
                snapshot=snap,
                db_uuid=self._db_uuid,
                generation=self._generation,
                commit_seqno=self._seqno,
                expected_counter=self._counter_value,
                master_name=master_name,
                master_blob=master_blob,
                segments=segments,
            )
