"""Replica side: verify-then-install shipment application.

A replica holds its image exactly as a primary does: under its own
one-way counter, the ``counter`` file of its directory.  Every install
advances that counter to the shipment's verified ``expected_counter``,
and the installed image only ever opens read-only against it, so an
image rolled back on the replica's disk fails the chunk store's counter
check with :class:`~repro.errors.ReplayDetectedError`, as it would on a
primary.

The applier treats the shipping channel exactly as the chunk store
treats its untrusted store: *nothing is trusted until verified*.  A
shipment is rebuilt in an in-memory candidate store and must survive the
full local-attacker gauntlet before a single byte reaches the replica's
durable directory:

1. **Monotonicity** against the replica's high-water mark: its one-way
   counter, plus the MAC'd master record of the installed image when
   that image opens against the counter.  A shipment whose counter is
   behind the replica's is a replay.  Under the installed identity an
   older generation is a replay too, and a same-generation fork is
   tampering.  A shipment of another identity (a seeded image adopting
   its primary) passes on its counter alone: a primary pins no identity
   either.
2. **Transport digests**: every fetched segment must match the digest in
   its manifest (a lying manifest only changes *which* bytes get fetched
   — the cryptographic checks below still decide whether they are
   trusted).
3. **`ChunkStore.open(read_only=True)`** of the candidate under the
   shared device secret with a :class:`~repro.platform.MirrorOneWayCounter`
   pinned to the manifest's counter value: master MAC, residual-log hash
   chain, and *strict* counter equality.  A read-only open has no
   lost-commit tolerance — truncating the newest commit and rewinding
   the asserted counter by one does not fly on a replica.
4. **Deep Merkle scrub**: open() walks structure; only the deep scrub
   re-hashes every payload against the authenticated tree, catching
   corrupt sealed-segment bytes the open never touched.
5. **Signed heads** (secure profile): the primary's head chain must
   extend the mirrored tip and hold a head signing the verified master,
   by the same reconciler and tip rule the verifying client and the
   chunk store's open use.

Only then do the image files go to disk, and after them the counter
advances: the primary's own order (commit record, then counter).  A
crash in between leaves an image ahead of its counter, which no
read-only open serves and the next sync installs again.  The serving
database swaps under an exclusive :class:`TransactionGate` hold, so no
reader ever spans two images.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import os
import threading
from typing import Any, Dict, List, Optional

from repro.chunkstore import ChunkStore
from repro.chunkstore.master import MASTER_FILES, MasterRecord
from repro.chunkstore.segments import segment_file_name
from repro.config import (
    ChunkStoreConfig,
    CollectionStoreConfig,
    ObjectStoreConfig,
)
from repro.crypto import create_hash_engine
from repro.db import Database
from repro.errors import (
    ForkDetectedError,
    ReplayDetectedError,
    ReplicationError,
    RollbackDetectedError,
    TamperDetectedError,
    TDBError,
)
from repro.platform import (
    FileOneWayCounter,
    MemoryUntrustedStore,
    MirrorOneWayCounter,
)
from repro.platform.resilient import RetryPolicy
from repro.replication.shipper import MAX_SHIP_BYTES
from repro.proofs.client import reconcile_heads
from repro.proofs.headlog import TIP_LAGS, HeadVerifier, TransparencyLog, bind_tip

__all__ = [
    "ReplicaApplier",
    "TransactionGate",
    "open_replica_database",
    "promote_replica",
    "seed_replica",
]


class TransactionGate:
    """Shared/exclusive gate between serving reads and image swaps.

    Every serving transaction holds the gate shared for its lifetime;
    the applier takes it exclusively around install-and-swap.  Readers
    therefore always see one consistent image, and a swap waits for
    in-flight transactions instead of yanking the store from under them.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_shared(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_shared(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    @contextlib.contextmanager
    def shared(self):
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextlib.contextmanager
    def exclusive(self):
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._writer = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


def _has_image(untrusted) -> bool:
    return any(untrusted.exists(name) for name in MASTER_FILES)


def open_replica_database(
    directory: str,
    chunk_config: Optional[ChunkStoreConfig] = None,
    object_config: Optional[ObjectStoreConfig] = None,
    collection_config: Optional[CollectionStoreConfig] = None,
    registry=None,
) -> Database:
    """Open a replica directory read-only against its own one-way counter.

    An image older than the counter (rolled back on the replica's disk)
    raises :class:`~repro.errors.ReplayDetectedError`; one newer than it
    (a crash between installing the files and advancing the counter)
    raises :class:`~repro.errors.TamperDetectedError`.
    """
    return Database._assemble(
        *Database._file_parts(directory),
        chunk_config or ChunkStoreConfig(),
        object_config or ObjectStoreConfig(),
        collection_config or CollectionStoreConfig(),
        registry,
        fresh=False,
        read_only=True,
    )


def seed_replica(
    directory: str,
    backup_names,
    archival=None,
    chunk_config: Optional[ChunkStoreConfig] = None,
) -> MasterRecord:
    """Bootstrap a replica image from a backup chain (catch-up seeding).

    Restores the chain into ``directory`` under the replica's own
    one-way counter and returns the restored image's master record, so
    the replica can serve (stale) reads before its first contact with
    the primary.  The restored store carries its own fresh identity; the
    first sync whose counter is not behind the replica's replaces the
    image with the primary's, adopting its identity.

    ``secret.key`` must already be provisioned in ``directory`` and the
    backups must come from the same device secret, or the restore's MAC
    checks fail.  Backups are read from ``archival`` when given, else
    from the replica's own ``archive/`` directory.
    """
    from repro.backupstore import BackupStore

    untrusted, secret, counter, own_archive = Database._file_parts(directory)
    if archival is None:
        archival = own_archive
    store = BackupStore(archival, secret).restore(
        list(backup_names), untrusted, secret, counter, chunk_config
    )
    store.close()
    return store.master_io.load_latest()


def promote_replica(
    directory: str,
    chunk_config: Optional[ChunkStoreConfig] = None,
    object_config: Optional[ObjectStoreConfig] = None,
    collection_config: Optional[CollectionStoreConfig] = None,
    registry=None,
) -> Database:
    """Open a replica for writes after the primary died.

    The image already sits under the replica's own one-way counter, so
    promotion is an ordinary writable open: from here on the node's
    commits advance that counter, exactly as on any primary.
    """
    untrusted, _, _, _ = Database._file_parts(directory)
    if not _has_image(untrusted):
        raise ReplicationError(
            f"nothing to promote: no replica image in {directory}"
        )
    return Database.open_existing(
        directory,
        chunk_config,
        object_config,
        collection_config,
        registry,
    )


class ReplicaApplier:
    """Pulls shipments from a primary and maintains the replica image.

    ``client`` is anything with ``call(op, **params)`` and ``close()`` —
    normally a :class:`~repro.server.client.TdbClient` against the
    primary (built lazily from ``host``/``port``), or a tampering
    wrapper from :mod:`repro.testing.shipping` in tests.
    """

    def __init__(
        self,
        directory: str,
        host: Optional[str] = None,
        port: Optional[int] = None,
        client=None,
        chunk_config: Optional[ChunkStoreConfig] = None,
        object_config: Optional[ObjectStoreConfig] = None,
        collection_config: Optional[CollectionStoreConfig] = None,
        poll_interval: float = 0.2,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.untrusted, self.secret_store, self.counter, _ = (
            Database._file_parts(self.directory)
        )
        self.chunk_config = chunk_config or ChunkStoreConfig()
        self.object_config = object_config or ObjectStoreConfig()
        self.collection_config = collection_config or CollectionStoreConfig()
        self.poll_interval = poll_interval
        # Follow-mode link failures back off exponentially (capped, with
        # deterministic jitter) instead of hammering a down primary at
        # the poll interval.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=6,
            base_delay=max(poll_interval, 0.01),
            multiplier=2.0,
            max_delay=max(poll_interval * 16.0, 2.0),
            jitter=0.25,
        )
        self.gate = TransactionGate()
        self.db: Optional[Database] = None
        self._host = host
        self._port = port
        self._client = client
        self._server = None  # TdbServer serving this replica, if any
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Counters (read under _lock via stats_snapshot)
        self._shipments_applied = 0
        self._up_to_date_polls = 0
        self._segments_fetched = 0
        self._segments_reused = 0
        self._bytes_fetched = 0
        self._tamper_rejected = 0
        self._last_error: Optional[str] = None
        self._applied_seqno = 0
        self._primary_seqno = 0
        self._link_failures = 0
        self._reconnects = 0
        self._consecutive_failures = 0
        self._last_backoff = 0.0
        self._heads_mirrored = 0
        self._head_forks = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _call(self, op: str, **params) -> Dict[str, Any]:
        if self._client is None:
            if self._host is None or self._port is None:
                raise ReplicationError("no primary endpoint configured")
            from repro.server.client import TdbClient

            self._client = TdbClient(self._host, self._port)
        return self._client.call(op, **params)

    # ------------------------------------------------------------------
    # Sync
    # ------------------------------------------------------------------

    def sync_once(self) -> bool:
        """Fetch, verify, and install one shipment.

        Returns ``True`` when a new image was installed, ``False`` when
        the replica was already current.  Raises (and installs nothing)
        when the shipment fails verification.
        """
        installed = self._installed()
        params: Dict[str, Any] = {}
        if installed is not None:
            params = {
                "last_uuid": installed.db_uuid.hex(),
                "last_generation": installed.generation,
                "last_seqno": installed.commit_seqno,
            }
        try:
            manifest = self._call("repl.subscribe", **params)
            if manifest.get("up_to_date"):
                with self._lock:
                    self._up_to_date_polls += 1
                    self._primary_seqno = self._applied_seqno = int(
                        manifest.get("commit_seqno") or 0
                    )
                return False
            self._verify_monotonic(installed, manifest)
            candidate, reused = self._fetch_candidate(manifest)
            master = self._verify_candidate(manifest, candidate)
            head_plan = self._verify_heads(master)
        except ForkDetectedError:
            with self._lock:
                self._head_forks += 1
                self._tamper_rejected += 1
            raise
        except (TamperDetectedError, RollbackDetectedError):
            with self._lock:
                self._tamper_rejected += 1
            raise
        self._install(manifest, candidate, head_plan)
        with self._lock:
            self._shipments_applied += 1
            self._segments_reused += reused
            self._applied_seqno = self._primary_seqno = manifest["commit_seqno"]
        return True

    def _installed(self) -> Optional[ChunkStore]:
        """The installed image's store, or ``None`` if none opens.

        The image opens only against the replica's own counter, so a
        missing, rolled-back or half-installed image leaves the counter
        as the sync's only high-water mark.
        """
        try:
            return self.open_serving_db().chunk_store
        except TDBError:
            return None

    def _verify_monotonic(
        self, installed: Optional[ChunkStore], manifest: Dict[str, Any]
    ) -> None:
        floor = self.counter.read()
        if manifest["expected_counter"] < floor:
            raise ReplayDetectedError(
                f"shipment asserts counter {manifest['expected_counter']} but "
                f"this replica's one-way counter is at {floor}: replayed "
                "shipment"
            )
        if installed is None or manifest["db_uuid"] != installed.db_uuid.hex():
            return  # the counter floor is the only defense across identities
        if manifest["generation"] < installed.generation:
            raise ReplayDetectedError(
                f"shipment generation {manifest['generation']} is older than "
                f"the installed generation {installed.generation}: replayed "
                "shipment"
            )
        if manifest["generation"] == installed.generation and (
            manifest["commit_seqno"] != installed.commit_seqno
            or manifest["expected_counter"] != floor
        ):
            raise TamperDetectedError(
                "shipment forks the installed generation "
                f"{installed.generation} with different seqno/counter"
            )
        if manifest["commit_seqno"] < installed.commit_seqno:
            raise TamperDetectedError(
                "shipment advances the generation while regressing the "
                "commit seqno"
            )

    def _fetch_range(self, segment: int, offset: int, length: int) -> bytes:
        parts = []
        cursor, remaining = offset, length
        while remaining > 0:
            step = min(remaining, MAX_SHIP_BYTES)
            reply = self._call(
                "repl.segments", segment=segment, offset=cursor, length=step
            )
            data = base64.b64decode(reply["data"])
            if len(data) != step:
                raise TamperDetectedError(
                    f"segment {segment} shipment is truncated "
                    f"({len(data)} of {step} bytes at offset {cursor})"
                )
            parts.append(data)
            cursor += step
            remaining -= step
            with self._lock:
                self._bytes_fetched += len(data)
        return b"".join(parts)

    def _fetch_candidate(self, manifest: Dict[str, Any]):
        """Rebuild the shipped image in memory, reusing local bytes.

        A local segment whose prefix already matches the manifest digest
        is not re-fetched (and a grown tail fetches only its delta);
        any digest mismatch falls back to a full fetch, so local bit rot
        heals instead of wedging the replica.
        """
        candidate = MemoryUntrustedStore()
        reused = 0
        entries = manifest["segments"]
        # Pass 1: reuse a local candidate per segment (a full local copy,
        # or a local prefix grown by fetching only the tail delta) whose
        # digest matches the manifest.
        chosen: Dict[int, bytes] = {}
        for position, entry in enumerate(entries):
            number, want = entry["number"], entry["file_bytes"]
            name = segment_file_name(number)
            if not self.untrusted.exists(name):
                continue
            have = min(self.untrusted.size(name), want)
            local = self.untrusted.read(name, 0, have) if have else b""
            if len(local) < want:
                local += self._fetch_range(number, len(local), want - len(local))
            if hashlib.sha256(local).hexdigest() == entry["digest"]:
                chosen[position] = local
                reused += 1
        # Pass 2: everything not reusable is fully fetched and verified
        # the same way.
        for position, entry in enumerate(entries):
            if position in chosen:
                continue
            data = self._fetch_range(entry["number"], 0, entry["file_bytes"])
            if hashlib.sha256(data).hexdigest() != entry["digest"]:
                raise TamperDetectedError(
                    f"segment {entry['number']} bytes do not "
                    "match the manifest digest after a full fetch"
                )
            chosen[position] = data
            with self._lock:
                self._segments_fetched += 1
        for position, entry in enumerate(entries):
            candidate.write(segment_file_name(entry["number"]), 0, chosen[position])
        reply = self._call("repl.master")
        blob = base64.b64decode(reply["data"])
        if reply.get("name") != manifest["master_name"] or len(blob) != int(
            manifest["master_bytes"]
        ):
            raise TamperDetectedError(
                "master-record shipment does not match the manifest"
            )
        candidate.write(manifest["master_name"], 0, blob)
        return candidate, reused

    def _verify_candidate(
        self, manifest: Dict[str, Any], candidate: MemoryUntrustedStore
    ) -> MasterRecord:
        """Open and deep-scrub the candidate; return its verified master."""
        counter = MirrorOneWayCounter(int(manifest["expected_counter"]))
        store = ChunkStore.open(
            candidate,
            self.secret_store,
            counter,
            self.chunk_config,
            read_only=True,
        )
        try:
            if store.db_uuid.hex() != manifest["db_uuid"]:
                raise TamperDetectedError(
                    "shipped image authenticates a different identity than "
                    "its manifest claims"
                )
            if (
                store.generation != manifest["generation"]
                or store.commit_seqno != manifest["commit_seqno"]
            ):
                raise TamperDetectedError(
                    "shipped image authenticates a different generation or "
                    "commit seqno than its manifest claims"
                )
            report = store.scrub()
            if not report.clean:
                raise TamperDetectedError(
                    f"shipped image failed its deep scrub: {report.summary()}"
                )
            return store.master_io.load_latest()
        finally:
            store.close()

    def _load_local_headlog(self, db_uuid: bytes, hash_size: int):
        """The replica's mirrored head log, or ``None`` if unusable.

        A damaged or foreign-identity local mirror (seed adoption, local
        bit rot) is treated like a missing one — the primary's chain is
        then re-verified all the way from genesis, so nothing is healed
        without re-proving it.
        """
        if not TransparencyLog.exists(self.untrusted):
            return None
        try:
            return TransparencyLog.load(
                self.untrusted,
                self.secret_store,
                db_uuid,
                hash_size,
                writable=False,
            )
        except TamperDetectedError:
            return None

    def _verify_heads(self, master: MasterRecord):
        """Cross-check the primary's transparency log against the shipment.

        The primary's chain must extend the replica's mirrored tip
        (:func:`~repro.proofs.client.reconcile_heads`), and the history
        must hold a head signing exactly the candidate's verified master
        (:func:`~repro.proofs.headlog.bind_tip`).  Returns the plan
        ``(recreate, entries)`` for :meth:`_install` to mirror.
        """
        if not self.chunk_config.security.enabled:
            return None
        reply = self._call("log.head")
        if base64.b64decode(reply["uuid"]) != master.db_uuid:
            raise TamperDetectedError(
                "primary's transparency log names a different database "
                "identity than the shipment manifest"
            )
        local = self._load_local_headlog(master.db_uuid, master.hash_size)
        verifier = HeadVerifier(
            self.secret_store, master.db_uuid, master.hash_size
        )
        _, fresh = reconcile_heads(
            verifier,
            local.tip() if local is not None else None,
            base64.b64decode(reply["head"]),
            self._consistency,
        )
        known = (local.heads() if local is not None else []) + fresh
        if bind_tip(known, master, master.hash_size)[0] == TIP_LAGS:
            raise TamperDetectedError(
                f"primary's head log has no entry for the shipped "
                f"generation {master.generation}"
            )
        # Mirror only up to the installed generation: entries signed for
        # later commits belong to an image this replica does not hold yet.
        mirror = [head.raw for head in fresh if head.generation <= master.generation]
        if local is None or mirror:
            return (local is None, mirror)
        return None

    def _consistency(self, lo: int, hi: int) -> List[bytes]:
        reply = self._call("log.consistency", from_index=lo, to_index=hi)
        return [base64.b64decode(entry) for entry in reply["entries"]]

    def _install(
        self,
        manifest: Dict[str, Any],
        candidate: MemoryUntrustedStore,
        head_plan=None,
    ) -> None:
        with self.gate.exclusive():
            # The files under the serving image are about to change: if
            # the install fails part-way, nothing serves until a sync
            # completes.
            old, self.db = self.db, None
            try:
                self._write_image(manifest, candidate, head_plan)
                # The counter last, as a primary advances it after its
                # commit record: a crash before this line leaves an
                # image ahead of the counter, which no read-only open
                # serves and the next sync installs again.
                FileOneWayCounter.initialize(
                    self.counter.path, manifest["expected_counter"]
                )
                self.db = open_replica_database(
                    self.directory,
                    self.chunk_config,
                    self.object_config,
                    self.collection_config,
                )
                if self._server is not None:
                    self._server.db = self.db
                    self._server.register_data_model()
            finally:
                if old is not None:
                    old.close()

    def _write_image(self, manifest, candidate, head_plan) -> None:
        keep = set(candidate.list_files())
        # Segments first, master after, stale files last: a crash in
        # between leaves an image the next sync simply heals.
        names = sorted(name for name in keep if name.startswith("seg-"))
        names += [name for name in keep if name in MASTER_FILES]
        for name in names:
            data = candidate.read(name)
            if self.untrusted.exists(name):
                if (
                    self.untrusted.size(name) == len(data)
                    and self.untrusted.read(name) == data
                ):
                    continue
                self.untrusted.truncate(name, 0)
            self.untrusted.write(name, 0, data)
            self.untrusted.sync(name)
        for name in self.untrusted.list_files():
            stale = name.startswith("seg-") or name in MASTER_FILES
            if stale and name not in keep:
                self.untrusted.delete(name)
        # Mirror the primary's head log *after* the image files: a crash
        # in between leaves the mirror lagging the image, which the next
        # sync appends through — never leading it.
        if head_plan is None:
            return
        recreate, fresh = head_plan
        uuid = bytes.fromhex(manifest["db_uuid"])
        hash_size = create_hash_engine(
            self.chunk_config.security.hash_name
        ).digest_size
        if recreate:
            log = TransparencyLog.create(
                self.untrusted, self.secret_store, uuid, hash_size
            )
        else:
            log = TransparencyLog.load(
                self.untrusted,
                self.secret_store,
                uuid,
                hash_size,
                writable=True,
            )
        for raw in fresh:
            log.append_entry(raw)
        with self._lock:
            self._heads_mirrored += len(fresh)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def open_serving_db(self) -> Database:
        """Open the installed image read-only, if not open already.

        Raises :class:`~repro.errors.ReplayDetectedError` for an image
        rolled back behind the replica's counter.
        """
        if self.db is None:
            if not _has_image(self.untrusted):
                raise ReplicationError(
                    "replica has no installed image yet: sync or seed first"
                )
            self.db = open_replica_database(
                self.directory,
                self.chunk_config,
                self.object_config,
                self.collection_config,
            )
        return self.db

    def serve(self, host: str = "127.0.0.1", port: int = 0, **server_kwargs):
        """Start a read-only :class:`~repro.server.server.TdbServer`.

        The server's transactions hold the applier's gate shared, so
        image swaps are atomic with respect to remote readers.
        """
        from repro.server.server import TdbServer

        db = self.open_serving_db()
        self._server = TdbServer(
            db,
            host=host,
            port=port,
            read_only=True,
            txn_gate=self.gate,
            replication_stats=self.stats_snapshot,
            **server_kwargs,
        )
        self._server.start()
        return self._server

    def start(self) -> None:
        """Start the background polling loop."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._poll_loop, name="replica-applier", daemon=True
        )
        self._thread.start()

    def _poll_loop(self) -> None:
        failures = 0
        while not self._stop.is_set():
            try:
                self.sync_once()
            except (TDBError, OSError) as exc:
                # A rejected shipment or a dead link must not take the
                # replica down: it keeps serving its last verified image
                # and keeps polling — backing off exponentially (capped,
                # deterministic jitter) while the failures persist.
                # sync_once always re-subscribes, so a primary restart
                # needs no special re-pin path: the first successful
                # poll after the outage re-establishes the subscription.
                failures += 1
                backoff = self.retry_policy.delay(
                    min(failures, self.retry_policy.max_attempts), failures
                )
                with self._lock:
                    self._last_error = f"{type(exc).__name__}: {exc}"
                    self._link_failures += 1
                    self._consecutive_failures = failures
                    self._last_backoff = backoff
                self._stop.wait(backoff)
                continue
            if failures:
                # The link healed: count the reconnect and restore the
                # normal polling cadence.
                failures = 0
                with self._lock:
                    self._reconnects += 1
                    self._consecutive_failures = 0
                    self._last_backoff = 0.0
            self._stop.wait(self.poll_interval)

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def close(self) -> None:
        self.stop()
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._client is not None:
            try:
                self._client.close()
            finally:
                self._client = None
        if self.db is not None:
            self.db.close()
            self.db = None

    def __enter__(self) -> "ReplicaApplier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "shipments_applied": self._shipments_applied,
                "up_to_date_polls": self._up_to_date_polls,
                "segments_fetched": self._segments_fetched,
                "segments_reused": self._segments_reused,
                "bytes_fetched": self._bytes_fetched,
                "tamper_rejected": self._tamper_rejected,
                "last_error": self._last_error,
                "applied_seqno": self._applied_seqno,
                "primary_seqno": self._primary_seqno,
                "lag_seqno": self._primary_seqno - self._applied_seqno,
                "link_failures": self._link_failures,
                "reconnects": self._reconnects,
                "consecutive_failures": self._consecutive_failures,
                "last_backoff": self._last_backoff,
                "heads_mirrored": self._heads_mirrored,
                "head_forks": self._head_forks,
            }
