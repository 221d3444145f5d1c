"""The :class:`ChunkStore` facade (Figure 2 of the paper, and then some).

Public operations::

    store = ChunkStore.format(untrusted, secret, counter, config)   # new db
    store = ChunkStore.open(untrusted, secret, counter, config)     # recover

    cid = store.allocate_chunk_id()
    store.write(cid, b"state")            # single-op durable commit
    store.commit({cid: b"new"}, deallocs=[old_cid], durable=False)  # batch
    data = store.read(cid)
    store.deallocate(cid)

    snap = store.snapshot()               # copy-on-write pin (backup, ship, prove)
    store.checkpoint()                    # flush location map + master
    store.clean()                         # explicit cleaner pass
    store.close()

This module holds the commit path, the read path and the public API.
Each other job has its own module: recovery (:mod:`.recovery`),
checkpoints and the head log (:mod:`.checkpoint`), space management
(:mod:`.cleaner`), snapshots (:mod:`.snapshot`) and scrubbing
(:mod:`.scrub`).

Security behaviour: with the secure profile every payload is encrypted,
every record is covered by the residual-log hash chain and MACed, the
master record binds the Merkle root to the one-way counter, and
``open()`` raises :class:`TamperDetectedError` / :class:`ReplayDetectedError`
when the untrusted store does not check out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cache import SharedLruCache
from repro.chunkstore.checkpoint import StoreNodeIO, format_image, write_checkpoint
from repro.chunkstore.chunkids import ChunkIds
from repro.chunkstore.cleaner import CLEANER_SEGMENTS_PER_PASS, Cleaner, CleanerStats
from repro.chunkstore.format import CommitBody, CommitItem, Locator, RecordKind
from repro.chunkstore.keys import derive_store_keys
from repro.chunkstore.master import MasterIO, MASTER_FILES
from repro.chunkstore.recovery import SalvageInfo, check_counter, recover
from repro.chunkstore.scrub import DamageReport, scrub_store
from repro.chunkstore.segments import segment_file_name
from repro.chunkstore.snapshot import Snapshot
from repro.config import ChunkStoreConfig
from repro.errors import (
    ChunkNotFoundError, ChunkStoreError, ReadOnlyStoreError, SalvageReadOnlyError, TamperDetectedError,
)
from repro.perf import PerfStats
from repro.platform.counter import OneWayCounter
from repro.platform.secret import SecretStore
from repro.platform.untrusted import UntrustedStore

__all__ = ["ChunkStore", "ChunkStoreStats", "SalvageInfo"]

#: Map nodes the store's own cache holds when the caller passes no
#: shared cache (the full stack shares one with the object store).
MAP_CACHE_ENTRIES = 1024


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
        config: Optional[ChunkStoreConfig],
        cache: Optional[SharedLruCache],
        read_only: bool = False,
        salvage: bool = False,
    ) -> "ChunkStore":
        self = object.__new__(cls)
        self.untrusted = untrusted
        self.secret_store = secret_store
        self.counter = counter
        self.config = config = config or ChunkStoreConfig()
        self.secure = config.security.enabled
        self.perf = PerfStats()
        (
            self.hash_engine, self.cipher, self._record_mac, self._master_mac
        ) = derive_store_keys(config.security, secret_store, self.perf)
        self.hash_size = self.hash_engine.digest_size if self.secure else 0
        untrusted.stats.attach_section("perf", self.perf.as_dict)
        self.cache = cache or SharedLruCache(MAP_CACHE_ENTRIES * 4096)
        self.node_io = StoreNodeIO(self)
        self.master_io = MasterIO(untrusted, self._master_mac)
        self.cleaner = Cleaner(self)
        self._lock = threading.RLock()
        self._closed = False
        self._seqno = 0
        self._counter_value = 0
        self.ids = ChunkIds()
        self._generation = 0
        self.db_uuid = b"\x00" * 16  # the identity format gave the database
        self._residual_bytes = 0
        self._snapshots: Dict[int, Snapshot] = {}
        self._next_snapshot_id = 1
        self._commits_total = 0
        self._durable_commits_total = 0
        self._checkpoints_total = 0
        self._app_payload_bytes = 0
        self.possible_lost_commit = False
        self.salvage = salvage  # opened by open_salvage()
        self.read_only = read_only  # opened by open(read_only=True)
        self.salvage_info: Optional[SalvageInfo] = None
        self.transparency = None  # the signed head log (secure profile)
        return self

    # -- Construction --------------------------------------------------

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
        format_image(self)
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

        Only a writable open repairs the media (see :mod:`.recovery`).
        With ``read_only=True`` (a replica serving a verified shipped
        image; ``tools`` reading a live directory) the open runs the
        same replay and checks but writes nothing, and afterwards every
        mutating operation raises :class:`ReadOnlyStoreError`.
        """
        return recover(cls._new(untrusted, secret_store, counter, config, cache, read_only))

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

        Like a read-only :meth:`open`, but damage that can be routed
        around is recorded in :attr:`salvage_info` instead of raised
        (see :mod:`.recovery`).  Every chunk whose Merkle path still
        verifies is readable; :meth:`scrub` enumerates the rest.  Only
        a usable master record is required.
        """
        return recover(cls._new(untrusted, secret_store, counter, config, cache, salvage=True))

    #: The replay-attack check.  Recovery calls it (and
    #: :meth:`_digest_payload`) through the store, so a test can patch it.
    _check_counter = check_counter

    def _digest_payload(self, data: bytes) -> bytes:
        """Content digest of a chunk or map-node payload."""
        return self.hash_engine.digest(data)

    def _locator(self, segment: int, offset: int, payload: bytes) -> Locator:
        """The locator of ``payload`` appended at ``(segment, offset)``."""
        return Locator(
            segment=segment,
            offset=offset,
            length=len(payload),
            hash_value=self._digest_payload(payload) if self.secure else b"",
        )

    # -- Chunk operations (Figure 2 interface) -------------------------

    def allocate_chunk_id(self) -> int:
        """Return an unallocated chunk id (reuses deallocated ids)."""
        with self._lock:
            self._check_writable()
            return self.ids.allocate()

    def release_chunk_id(self, chunk_id: int) -> None:
        """Return an allocated-but-never-written id (an aborted insert)."""
        with self._lock:
            self._check_open()
            self.ids.release(chunk_id)

    def adopt_chunk_id(self, chunk_id: int) -> None:
        """Allocate a specific id: a restore keeps the original ids, so
        object references stay valid."""
        with self._lock:
            self._check_writable()
            self.ids.adopt(chunk_id)

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
            self._check_writable()
            deallocs = list(deallocs)
            if not writes and not deallocs:
                return
            self.ids.check_commit(writes, deallocs, self.location_map.lookup)
            items = [
                CommitItem(chunk_id, self.cipher.encrypt(bytes(data)))
                for chunk_id, data in sorted(writes.items())
            ]
            self._commit_items(items, deallocs, durable, from_cleaner=False)
            self.ids.committed(writes, deallocs)
            self._after_commit()

    def commit_raw_payloads(self, items: List[Tuple[int, bytes]]) -> None:
        """Cleaner entry point: relocate already-encrypted payloads."""
        with self._lock:
            self._check_writable()
            commit_items = [CommitItem(cid, payload) for cid, payload in items]
            self._commit_items(commit_items, [], durable=True, from_cleaner=True)

    def _commit_items(
        self, items: List[CommitItem], deallocs: List[int], durable: bool, from_cleaner: bool
    ) -> None:
        """Append one commit record and point the map at its payloads."""
        self._seqno += 1
        bump_counter = durable and self.secure
        expected = self._counter_value + (1 if bump_counter else 0)
        body_obj = CommitBody(
            seqno=self._seqno,
            durable=durable,
            from_cleaner=from_cleaner,
            expected_counter=expected,
            next_chunk_id=self.ids.next_id,
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
            locator = self._locator(segment, offset + rel, item.payload)
            old = self.location_map.set(item.chunk_id, locator)
            if old is not None:
                self.cleaner.retire(old, commit_durable=durable)
        for chunk_id in deallocs:
            old = self.location_map.remove(chunk_id)
            if old is not None:
                self.cleaner.retire(old, commit_durable=durable)
        self._commits_total += 1
        if durable:
            self._durable_commits_total += 1
            self.segments.sync_dirty()
            if bump_counter:
                self.counter.increment()
                self._counter_value += 1
            self.cleaner.flush_nondurable()

    def _after_commit(self) -> None:
        if self._residual_bytes >= self.config.checkpoint_residual_bytes:
            self.checkpoint()
        self.cleaner.space_policy()

    # -- Reads (shared with snapshots, the map, scrub and proofs) ------

    def read_payload(self, locator: Locator) -> bytes:
        """Fetch, validate, and decrypt the payload a locator points at."""
        return self.cipher.decrypt(self.read_payload_raw(locator))

    def read_payload_raw(self, locator: Locator) -> bytes:
        """Digest-verified *ciphertext* bytes a locator points at.

        Every payload read goes through here.  The proof service calls it
        without the store lock: it only proves against a pinned snapshot,
        whose locators reference bytes concurrent commits never rewrite.
        """
        data = self.segments.read(locator.segment, locator.offset, locator.length)
        if self.secure and self._digest_payload(data) != locator.hash_value:
            raise TamperDetectedError(
                f"chunk payload at segment {locator.segment} offset "
                f"{locator.offset} failed hash validation"
            )
        return data

    def read_segment_bytes(self, number: int, offset: int, length: int) -> bytes:
        """Raw media bytes of a segment, for replication shipping (only
        ever below a live :class:`Snapshot`'s extent, which is immutable)."""
        return self.untrusted.read(segment_file_name(number), offset, length)

    def scrub(self) -> DamageReport:
        """Verify every reachable map node and chunk payload from media;
        damage is *reported*, never raised (see :func:`scrub_store`)."""
        return scrub_store(self)[0]

    def export_surviving(self) -> Tuple[DamageReport, Dict[int, bytes]]:
        """Scrub and return the plaintext of every chunk that verifies.

        The salvage-export path: an embedding application gets whatever
        state the damage spared (meters, balances) plus the report of
        what was lost.
        """
        return scrub_store(self, collect=True)

    # -- Checkpoints, space management, snapshots ----------------------

    def checkpoint(self, force: bool = False) -> None:
        """Write dirty map nodes and a fresh master record.

        Runs as the paper's "opportunistic" map flush: recovery afterwards
        replays only the log written after this point.
        """
        with self._lock:
            self._check_writable()
            write_checkpoint(self, force)

    def clean(self, max_segments: Optional[int] = None) -> int:
        """Run one explicit cleaning pass; return segments recycled."""
        with self._lock:
            self._check_writable()
            return self.cleaner.clean_pass(max_segments or CLEANER_SEGMENTS_PER_PASS)

    def idle_maintenance(self, max_passes: int = 16) -> dict:
        """Run deferred reorganization during an idle period.

        The paper leans on DRM workloads' long idle times: "some of the
        database reorganization (such as log checkpointing) can be
        deferred until idle time" (section 1).  Returns a small report
        dict (see :meth:`Cleaner.idle_maintenance`).
        """
        with self._lock:
            self._check_writable()
            return self.cleaner.idle_maintenance(max_passes)

    def snapshot(self) -> Snapshot:
        """Checkpoint and pin the result (copy-on-write).

        The one pin for backups, replication shipments and proofs; the
        caller releases it with :meth:`Snapshot.release`.
        """
        with self._lock:
            self._check_writable()
            self.checkpoint(force=True)
            snap = Snapshot(self, self._next_snapshot_id)
            self._next_snapshot_id += 1
            self._snapshots[snap.snapshot_id] = snap
            return snap

    def active_snapshots(self) -> List[Snapshot]:
        return list(self._snapshots.values())

    # -- Introspection & lifecycle -------------------------------------

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
                next_chunk_id=self.ids.next_id,
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
                snap.release()
            if not self.salvage and not self.read_only:
                self.checkpoint()
                self.segments.sync_dirty()
            self._closed = True
            self.untrusted.close()

    def __enter__(self) -> "ChunkStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ChunkStoreError("chunk store is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self.salvage:
            raise SalvageReadOnlyError("store was opened in read-only salvage mode")
        if self.read_only:
            raise ReadOnlyStoreError("store was opened read-only (replica mode)")

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
