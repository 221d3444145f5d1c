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
shipment is written into ``data.tmp/`` beside the served ``data/`` and
must survive the full local-attacker gauntlet there before it can
become the served image:

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
3. **`ChunkStore.open(read_only=True)`** of ``data.tmp/`` under the
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

The verified ``data.tmp/`` is synced and renamed to ``data.next/`` (so a
``data.next/`` is always a complete, verified image), the counter
advances, and only then, under an exclusive :class:`TransactionGate`
hold, the serving database closes, ``data/`` becomes ``data.old/``,
``data.next/`` becomes ``data/``, the new image opens, and
``data.old/`` is deleted.  Readers keep the old image until that last
step, and no reader spans two images.

Every open of a replica directory first settles it (:func:`_settle`):
``data.tmp/`` and ``data.old/`` go, and a ``data.next/`` becomes
``data/`` if it opens against the counter and is deleted otherwise.  A
crash before the counter advance so leaves the old image serving; one
after it is finished by the next open, with no primary.  The counter
moves before the switch so that a crash never leaves the counter
matching neither directory, and a rolled-back ``data/`` still fails the
counter check: an old ``data.next/`` cannot match the counter either.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import os
import shutil
import threading
from typing import Any, Dict, List, Optional

from repro.chunkstore import ChunkStore
from repro.chunkstore.master import MASTER_FILES, MasterRecord
from repro.chunkstore.segments import segment_file_name
from repro.config import ChunkStoreConfig, CollectionStoreConfig, ObjectStoreConfig
from repro.db import Database
from repro.errors import (
    ForkDetectedError,
    ReplayDetectedError,
    ReplicationError,
    RollbackDetectedError,
    TamperDetectedError,
    TDBError,
)
from repro.platform import FileOneWayCounter, FileUntrustedStore, MirrorOneWayCounter
from repro.platform.resilient import RetryPolicy
from repro.replication.shipper import MAX_SHIP_BYTES
from repro.proofs.client import reconcile_heads
from repro.proofs.headlog import HEAD_LOG_FILE, TIP_LAGS, HeadVerifier, TransparencyLog, bind_tip

__all__ = [
    "ReplicaApplier",
    "TransactionGate",
    "open_replica_database",
    "promote_replica",
    "seed_replica",
]

#: The served image, a shipment being built, a verified image waiting
#: for its switch, and the image a switch moves aside.
DATA, TMP, NEXT, OLD = "data", "data.tmp", "data.next", "data.old"


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


def _rename(source: str, target: str) -> None:
    os.replace(source, target)


def _link(source: str, target: str) -> None:
    os.link(source, target)


def _remove_tree(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)


def _sync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _switch(directory: str) -> None:
    """Make ``data.next/`` the served ``data/``; ``data.old/`` must not exist."""
    served = os.path.join(directory, DATA)
    if os.path.isdir(served):
        _rename(served, os.path.join(directory, OLD))
    _rename(os.path.join(directory, NEXT), served)
    _sync_dir(directory)
    _remove_tree(os.path.join(directory, OLD))


def _settle(directory: str, chunk_config: ChunkStoreConfig) -> None:
    """Finish or discard what an interrupted install left beside ``data/``.

    Called before every open of a replica directory.  ``data.tmp/`` and
    ``data.old/`` go.  A ``data.next/`` is a verified image.  ``data/``
    stays whenever it opens read-only against the replica's own counter
    — writable commits on it may have caught the counter up since the
    install failed — and ``data.next/`` is then deleted.  Otherwise
    ``data.next/`` becomes ``data/`` if it opens against the counter
    (the install advanced the counter, so the crash came during the
    switch) and is deleted if it does not.  Raises
    :class:`~repro.errors.ReplicationError` if no image is left.
    """
    for name in (TMP, OLD):
        _remove_tree(os.path.join(directory, name))
    pending = os.path.join(directory, NEXT)
    if os.path.isdir(pending):
        served = os.path.join(directory, DATA)
        if _opens(directory, served, chunk_config) or not _opens(
            directory, pending, chunk_config
        ):
            _remove_tree(pending)
        else:
            _switch(directory)
    if not any(
        os.path.isfile(os.path.join(directory, DATA, name)) for name in MASTER_FILES
    ):
        raise ReplicationError(f"no replica image in {directory}: sync or seed first")


def _opens(directory: str, image: str, chunk_config: ChunkStoreConfig) -> bool:
    """Whether ``image`` opens read-only against ``directory``'s counter."""
    if not os.path.isdir(image):
        return False
    _, secret, counter, _ = Database._file_parts(directory)
    try:
        ChunkStore.open(
            FileUntrustedStore(image), secret, counter, chunk_config, read_only=True
        ).close()
    except TDBError:
        return False
    return True


def open_replica_database(
    directory: str, chunk_config: Optional[ChunkStoreConfig] = None
) -> Database:
    """Settle a replica directory, then open it read-only against its counter.

    An image older than the counter (rolled back on the replica's disk)
    raises :class:`~repro.errors.ReplayDetectedError`.
    """
    chunk_config = chunk_config or ChunkStoreConfig()
    _settle(directory, chunk_config)
    return Database._assemble(
        *Database._file_parts(directory),
        chunk_config,
        ObjectStoreConfig(),
        CollectionStoreConfig(),
        None,
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
    directory: str, chunk_config: Optional[ChunkStoreConfig] = None
) -> Database:
    """Open a replica for writes after the primary died.

    The directory is settled first, so an install the crash interrupted
    after its counter advance is finished here.  The image already sits
    under the replica's own one-way counter, so promotion is an ordinary
    writable open: from here on the node's commits advance that counter,
    exactly as on any primary.
    """
    _settle(directory, chunk_config or ChunkStoreConfig())
    return Database.open_existing(directory, chunk_config)


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
        poll_interval: float = 0.2,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        _, self.secret_store, self.counter, _ = Database._file_parts(self.directory)
        self.chunk_config = chunk_config or ChunkStoreConfig()
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
            reused = self._stage(manifest)
        except ForkDetectedError:
            with self._lock:
                self._head_forks += 1
                self._tamper_rejected += 1
            raise
        except (TamperDetectedError, RollbackDetectedError):
            with self._lock:
                self._tamper_rejected += 1
            raise
        self._install(manifest)
        with self._lock:
            self._shipments_applied += 1
            self._segments_reused += reused
            self._applied_seqno = self._primary_seqno = manifest["commit_seqno"]
        return True

    def _installed(self) -> Optional[ChunkStore]:
        """The installed image's store, or ``None`` if none opens.

        The image opens only against the replica's own counter, so a
        missing or rolled-back image leaves the counter as the sync's
        only high-water mark.
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

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _stage(self, manifest: Dict[str, Any]) -> int:
        """Build ``data.tmp/``, verify it where it lies, rename it to
        ``data.next/``; returns the number of segments reused."""
        for name in (TMP, NEXT, OLD):
            _remove_tree(self._path(name))
        staged = FileUntrustedStore(self._path(TMP))
        try:
            reused = self._fetch(manifest, staged)
            master = self._verify_candidate(manifest, staged)
            self._verify_heads(master, staged)
            for name in staged.list_files():
                staged.sync(name)
            _sync_dir(staged.root)
        except BaseException:
            _remove_tree(self._path(TMP))
            raise
        finally:
            staged.close()
        _rename(self._path(TMP), self._path(NEXT))
        _sync_dir(self.directory)
        return reused

    def _fetch(self, manifest: Dict[str, Any], staged: FileUntrustedStore) -> int:
        """Write the shipped segments, then its master record, into ``staged``.

        A local segment whose prefix already matches the manifest digest
        is not re-fetched (an unchanged one is hard-linked, and a grown
        tail fetches only its delta); any digest mismatch falls back to a
        full fetch, so local bit rot heals instead of wedging the replica.
        """
        served = FileUntrustedStore(self._path(DATA))
        reused = 0
        try:
            for entry in manifest["segments"]:
                number, want = entry["number"], entry["file_bytes"]
                name = segment_file_name(number)
                local = served.exists(name)
                if local:
                    data = served.read(name, 0, want)
                    data += self._fetch_range(number, len(data), want - len(data))
                if local and hashlib.sha256(data).hexdigest() == entry["digest"]:
                    reused += 1
                    if served.size(name) == want:
                        # Nothing writes a replica's segments before settling
                        # leaves one directory, so an unchanged one is shared.
                        _link(os.path.join(served.root, name), os.path.join(staged.root, name))
                        continue
                else:
                    data = self._fetch_range(number, 0, want)
                    if hashlib.sha256(data).hexdigest() != entry["digest"]:
                        raise TamperDetectedError(
                            f"segment {number} bytes do not "
                            "match the manifest digest after a full fetch"
                        )
                    with self._lock:
                        self._segments_fetched += 1
                staged.write(name, 0, data)
        finally:
            served.close()
        reply = self._call("repl.master")
        blob = base64.b64decode(reply["data"])
        if reply.get("name") != manifest["master_name"] or len(blob) != int(
            manifest["master_bytes"]
        ):
            raise TamperDetectedError(
                "master-record shipment does not match the manifest"
            )
        staged.write(manifest["master_name"], 0, blob)
        return reused

    def _verify_candidate(self, manifest: Dict[str, Any], staged) -> MasterRecord:
        """Open and deep-scrub the staged image; return its verified master."""
        counter = MirrorOneWayCounter(int(manifest["expected_counter"]))
        store = ChunkStore.open(
            staged, self.secret_store, counter, self.chunk_config, read_only=True
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

    def _load_local_headlog(self, staged, master: MasterRecord):
        """Copy the replica's mirrored head log into ``staged`` and load
        it there, or return ``None`` if it is unusable.

        A damaged or foreign-identity local mirror (seed adoption, local
        bit rot) is treated like a missing one — the primary's chain is
        then re-verified all the way from genesis, so nothing is healed
        without re-proving it.
        """
        served = FileUntrustedStore(self._path(DATA))
        try:
            if not TransparencyLog.exists(served):
                return None
            staged.write(HEAD_LOG_FILE, 0, served.read(HEAD_LOG_FILE))
        finally:
            served.close()
        try:
            return TransparencyLog.load(
                staged, self.secret_store, master.db_uuid, master.hash_size, writable=True
            )
        except TamperDetectedError:
            return None

    def _verify_heads(self, master: MasterRecord, staged) -> None:
        """Cross-check the primary's transparency log against the shipment
        and mirror it into ``staged``.

        The primary's chain must extend the replica's mirrored tip
        (:func:`~repro.proofs.client.reconcile_heads`), and the history
        must hold a head signing exactly the staged image's verified
        master (:func:`~repro.proofs.headlog.bind_tip`).
        """
        if not self.chunk_config.security.enabled:
            return
        reply = self._call("log.head")
        if base64.b64decode(reply["uuid"]) != master.db_uuid:
            raise TamperDetectedError(
                "primary's transparency log names a different database "
                "identity than the shipment manifest"
            )
        local = self._load_local_headlog(staged, master)
        verifier = HeadVerifier(self.secret_store, master.db_uuid, master.hash_size)
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
        if local is None:
            local = TransparencyLog.create(
                staged, self.secret_store, master.db_uuid, master.hash_size
            )
        # Mirror only up to the staged generation: entries signed for
        # later commits belong to an image this replica does not hold yet.
        mirror = [head.raw for head in fresh if head.generation <= master.generation]
        for raw in mirror:
            local.append_entry(raw)
        with self._lock:
            self._heads_mirrored += len(mirror)

    def _consistency(self, lo: int, hi: int) -> List[bytes]:
        reply = self._call("log.consistency", from_index=lo, to_index=hi)
        return [base64.b64decode(entry) for entry in reply["entries"]]

    def _install(self, manifest: Dict[str, Any]) -> None:
        """Advance the counter to the verified ``data.next/``, then switch."""
        FileOneWayCounter.initialize(self.counter.path, manifest["expected_counter"])
        with self.gate.exclusive():
            # If the switch fails part-way, nothing serves until the next
            # open settles the directory.
            old, self.db = self.db, None
            if old is not None:
                old.close()
            _switch(self.directory)
            self.db = open_replica_database(self.directory, self.chunk_config)
            if self._server is not None:
                self._server.db = self.db
                self._server.register_data_model()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def open_serving_db(self) -> Database:
        """Open the installed image read-only, if not open already.

        Raises :class:`~repro.errors.ReplayDetectedError` for an image
        rolled back behind the replica's counter.
        """
        if self.db is None:
            self.db = open_replica_database(self.directory, self.chunk_config)
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
