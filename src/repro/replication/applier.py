"""Replica side: verify-then-install shipment application.

The applier treats the shipping channel exactly as the chunk store
treats its untrusted store: *nothing is trusted until verified*.  A
shipment is rebuilt in an in-memory candidate store and must survive the
full local-attacker gauntlet before a single byte reaches the replica's
durable directory:

1. **Monotonicity** against the replica's MACed high-water sidecar
   (:mod:`repro.replication.state`): an older generation is a replayed
   shipment, a same-generation fork or an identity change is tampering.
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

Only then does the image go to disk, the sidecar advance, and the
serving database swap — under an exclusive
:class:`TransactionGate` hold so no reader ever spans two images.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import os
import threading
from typing import Any, Dict, Optional

from repro.chunkstore import ChunkStore
from repro.chunkstore.master import MASTER_FILES
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
    TamperDetectedError,
    TDBError,
)
from repro.platform import (
    FileOneWayCounter,
    MemoryOneWayCounter,
    MemoryUntrustedStore,
    MirrorOneWayCounter,
)
from repro.platform.resilient import RetryPolicy
from repro.replication.state import (
    ReplicaState,
    load_state,
    remove_state,
    save_state,
)
from repro.replication.shipper import MAX_SHIP_BYTES
from repro.proofs.headlog import HeadVerifier, TransparencyLog

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


def open_replica_database(
    directory: str,
    counter_value: int,
    chunk_config: Optional[ChunkStoreConfig] = None,
    object_config: Optional[ObjectStoreConfig] = None,
    collection_config: Optional[CollectionStoreConfig] = None,
    registry=None,
) -> Database:
    """Open a replica directory read-only against a mirrored counter.

    The replica has no counter hardware; ``counter_value`` is the value
    the applier verified for the installed image (from the sidecar).
    """
    return Database._assemble(
        *Database._file_parts(
            directory, counter=MirrorOneWayCounter(counter_value)
        ),
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
) -> ReplicaState:
    """Bootstrap a replica image from a backup chain (catch-up seeding).

    Restores the chain into ``directory`` and records a ``seeded``
    sidecar, so the replica can serve (stale) reads before its first
    contact with the primary.  The restored store carries its own fresh
    identity; the first successful sync notices the uuid mismatch —
    allowed exactly because the sidecar says ``seeded`` — and replaces
    the image with the primary's, adopting its identity.

    ``secret.key`` must already be provisioned in ``directory`` and the
    backups must come from the same device secret, or the restore's MAC
    checks fail.  Backups are read from ``archival`` when given, else
    from the replica's own ``archive/`` directory.
    """
    from repro.backupstore import BackupStore

    untrusted, secret, counter, own_archive = Database._file_parts(
        directory, counter=MemoryOneWayCounter()
    )
    if archival is None:
        archival = own_archive
    store = BackupStore(archival, secret).restore(
        list(backup_names), untrusted, secret, counter, chunk_config
    )
    try:
        state = ReplicaState(
            db_uuid=store.db_uuid.hex(),
            generation=store.generation,
            commit_seqno=store.commit_seqno,
            counter=store.stats().counter_value,
            seeded=True,
        )
    finally:
        store.close()
    save_state(directory, state, secret)
    return state


def promote_replica(
    directory: str,
    chunk_config: Optional[ChunkStoreConfig] = None,
    object_config: Optional[ObjectStoreConfig] = None,
    collection_config: Optional[CollectionStoreConfig] = None,
    registry=None,
) -> Database:
    """Open a replica for writes after the primary died.

    Binds the image to a real :class:`~repro.platform.FileOneWayCounter`
    seeded with the last verified counter value, then reopens writable —
    the normal open's replay check now runs against local hardware, so
    from this moment the node defends its own history.  The sidecar is
    retired once the writable open succeeds; a failed promote leaves the
    replica state untouched (the counter file, being one-way, may only
    have moved forward).
    """
    _, secret, counter, _ = Database._file_parts(directory)
    state = load_state(directory, secret)
    if state is None:
        raise ReplicationError(
            f"nothing to promote: no verified replica state in {directory}"
        )
    FileOneWayCounter.initialize(counter.path, state.counter)
    db = Database.open_existing(
        directory,
        chunk_config,
        object_config,
        collection_config,
        registry,
    )
    remove_state(directory)
    return db


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
        self.untrusted, self.secret_store, _, _ = Database._file_parts(
            self.directory
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
        state = load_state(self.directory, self.secret_store)
        params: Dict[str, Any] = {}
        if state is not None and not state.seeded:
            params = {
                "last_generation": state.generation,
                "last_seqno": state.commit_seqno,
            }
        try:
            manifest = self._call("repl.subscribe", **params)
            if manifest.get("up_to_date"):
                with self._lock:
                    self._up_to_date_polls += 1
                    self._primary_seqno = self._applied_seqno = int(
                        manifest.get("commit_seqno") or state.commit_seqno
                    )
                return False
            self._verify_monotonic(state, manifest)
            candidate, reused = self._fetch_candidate(manifest)
            verified_root = self._verify_candidate(manifest, candidate)
            head_plan = self._verify_heads(manifest, verified_root)
        except ForkDetectedError:
            with self._lock:
                self._head_forks += 1
                self._tamper_rejected += 1
            raise
        except TamperDetectedError:
            with self._lock:
                self._tamper_rejected += 1
            raise
        self._install(manifest, candidate, head_plan)
        with self._lock:
            self._shipments_applied += 1
            self._segments_reused += reused
            self._applied_seqno = self._primary_seqno = manifest["commit_seqno"]
        return True

    def _verify_monotonic(
        self, state: Optional[ReplicaState], manifest: Dict[str, Any]
    ) -> None:
        if state is None:
            return  # first contact: trust-on-first-use of the identity
        if manifest["db_uuid"] != state.db_uuid:
            if state.seeded:
                return  # adopting the primary's identity over the seed
            raise TamperDetectedError(
                "shipment carries a different database identity "
                f"({manifest['db_uuid'][:8]}... != {state.db_uuid[:8]}...)"
            )
        if manifest["generation"] < state.generation:
            raise ReplayDetectedError(
                f"shipment generation {manifest['generation']} is older than "
                f"the verified generation {state.generation}: replayed shipment"
            )
        if manifest["generation"] == state.generation and (
            manifest["commit_seqno"] != state.commit_seqno
            or manifest["expected_counter"] != state.counter
        ):
            raise TamperDetectedError(
                "shipment forks the verified generation "
                f"{state.generation} with different seqno/counter"
            )
        if (
            manifest["commit_seqno"] < state.commit_seqno
            or manifest["expected_counter"] < state.counter
        ):
            raise TamperDetectedError(
                "shipment advances the generation while regressing "
                "commit seqno or counter"
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
    ) -> None:
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
            report = store.scrub(deep=True)
            if not report.clean:
                raise TamperDetectedError(
                    f"shipped image failed its deep scrub: {report.summary()}"
                )
            root = store.location_map.root_locator
            return root.hash_value if root is not None else None
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

    def _verify_heads(self, manifest: Dict[str, Any], verified_root):
        """Cross-check the primary's transparency log against the shipment.

        Fetches the signed head chain, verifies it extends the replica's
        mirror (equivocation at any mirrored index is a fork), and
        requires the entry for the shipped generation to sign exactly
        the root digest the deep scrub just verified.  Returns the plan
        ``(recreate, entries)`` for :meth:`_install` to mirror.
        """
        if not self.chunk_config.security.enabled:
            return None
        uuid = bytes.fromhex(manifest["db_uuid"])
        hash_size = create_hash_engine(
            self.chunk_config.security.hash_name
        ).digest_size
        reply = self._call("log.head")
        if base64.b64decode(reply["uuid"]) != uuid:
            raise TamperDetectedError(
                "primary's transparency log names a different database "
                "identity than the shipment manifest"
            )
        length = int(reply["length"])
        local = self._load_local_headlog(uuid, hash_size)
        local_len = len(local) if local is not None else 0
        if local_len > length:
            raise TamperDetectedError(
                f"primary's head log has {length} entries but the replica "
                f"mirrored {local_len}: the primary's log was truncated"
            )
        if length == 0:
            raise TamperDetectedError(
                "primary serves an empty transparency log for a secure store"
            )
        verifier = HeadVerifier(self.secret_store, uuid, hash_size)
        start = local_len - 1 if local_len else 0
        reply = self._call(
            "log.consistency", from_index=start, to_index=length - 1
        )
        entries = [base64.b64decode(entry) for entry in reply["entries"]]
        if local_len:
            tip = local.tip()
            if not entries or entries[0] != tip.raw:
                raise ForkDetectedError(
                    f"primary signed a different head at index {tip.index} "
                    "than the one this replica mirrored: equivocation"
                )
            chain = verifier.verify_chain(entries[1:], after=tip)
        else:
            chain = verifier.verify_chain(entries, after=None)
        # The shipped generation's head must sign the scrubbed root.
        target = None
        known = (local.heads() if local_len else []) + chain
        for head in known:
            if head.generation == manifest["generation"]:
                target = head
                break
        if target is None:
            raise TamperDetectedError(
                f"primary's head log has no entry for the shipped "
                f"generation {manifest['generation']}"
            )
        expected_root = (
            verified_root if verified_root is not None else bytes(hash_size)
        )
        if (
            target.seqno != manifest["commit_seqno"]
            or target.counter != manifest["expected_counter"]
            or target.root_digest != expected_root
            or target.empty_root != (verified_root is None)
        ):
            raise TamperDetectedError(
                "signed head for the shipped generation does not match "
                "the verified image (root/seqno/counter mismatch)"
            )
        # Mirror only up to the installed generation: entries signed for
        # later commits belong to an image this replica does not hold yet.
        fresh = [
            head.raw for head in chain if head.generation <= manifest["generation"]
        ]
        if local is None or fresh:
            return (local is None, fresh)
        return None

    def _install(
        self,
        manifest: Dict[str, Any],
        candidate: MemoryUntrustedStore,
        head_plan=None,
    ) -> None:
        keep = set(candidate.list_files())
        new_state = ReplicaState(
            db_uuid=manifest["db_uuid"],
            generation=manifest["generation"],
            commit_seqno=manifest["commit_seqno"],
            counter=manifest["expected_counter"],
            seeded=False,
        )
        with self.gate.exclusive():
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
            # Mirror the primary's head log *after* the image files: a
            # crash in between leaves the mirror lagging the image,
            # which the next sync appends through — never leading it.
            if head_plan is not None:
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
            save_state(self.directory, new_state, self.secret_store)
            old = self.db
            self.db = open_replica_database(
                self.directory,
                new_state.counter,
                self.chunk_config,
                self.object_config,
                self.collection_config,
            )
            if self._server is not None:
                self._server.db = self.db
                self._server.register_data_model()
            if old is not None:
                old.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def open_serving_db(self) -> Database:
        """Open the serving database from the installed image, if absent."""
        if self.db is None:
            state = load_state(self.directory, self.secret_store)
            if state is None:
                raise ReplicationError(
                    "replica has no installed image yet: sync or seed first"
                )
            self.db = open_replica_database(
                self.directory,
                state.counter,
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
