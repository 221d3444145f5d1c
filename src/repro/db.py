"""Top-level database facade: the whole TDB stack in one object.

Most applications want the full stack — chunk store, object store,
collection store, backups — wired together with one shared cache and one
secret.  :class:`Database` does exactly that::

    from repro import Database

    db = Database.create("/path/to/dbdir")         # file-backed, secure
    db = Database.open_existing("/path/to/dbdir")  # after a restart
    db = Database.in_memory()                      # tests and demos

    db.register_class(Meter)
    with db.transaction() as txn:                  # object-level work
        oid = txn.insert(Meter())

    db.register_indexer(my_indexer)
    with db.ctransaction() as ct:                  # collection-level work
        handle = ct.create_collection("profile", my_indexer)

    backups = db.backup_store()                    # full/incremental backups
    db.close()

The file layout under the directory is::

    data/        untrusted store (log segments + master records)
    archive/     archival store (backup streams)
    counter      one-way counter file
    secret.key   the device secret

A real DRM deployment keeps ``secret.key`` and ``counter`` in trusted
hardware; on a development machine they live next to the data for
convenience, which obviously voids the threat model — see README.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Type

from repro.backupstore import BackupStore
from repro.cache import SharedLruCache
from repro.chunkstore import ChunkStore
from repro.collectionstore import CollectionStore, CTransaction, Indexer
from repro.config import (
    ChunkStoreConfig,
    CollectionStoreConfig,
    ObjectStoreConfig,
)
from repro.errors import TDBError
from repro.objectstore import ClassRegistry, ObjectStore, Persistent, Transaction
from repro.platform import (
    ArchivalStore,
    FileArchivalStore,
    FileOneWayCounter,
    FileSecretStore,
    FileUntrustedStore,
    MemoryArchivalStore,
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
    OneWayCounter,
    SecretStore,
    UntrustedStore,
)

__all__ = ["Database"]


class Database:
    """The assembled TDB stack."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        object_store: Optional[ObjectStore],
        collection_store: Optional[CollectionStore],
        archival: ArchivalStore,
    ) -> None:
        self.chunk_store = chunk_store
        self.object_store = object_store
        self.collection_store = collection_store
        self.archival = archival
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def salvage(self) -> bool:
        """Whether this database was opened read-only in salvage mode."""
        return self.chunk_store.salvage

    @property
    def read_only(self) -> bool:
        """Whether this database was opened in read-only replica mode."""
        return self.chunk_store.read_only

    @property
    def salvage_info(self):
        """Salvage anomalies (``None`` unless opened with ``salvage=True``)."""
        return self.chunk_store.salvage_info

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def _assemble(
        cls,
        untrusted: UntrustedStore,
        secret: SecretStore,
        counter: OneWayCounter,
        archival: ArchivalStore,
        chunk_config: ChunkStoreConfig,
        object_config: ObjectStoreConfig,
        collection_config: CollectionStoreConfig,
        registry: Optional[ClassRegistry],
        fresh: bool,
        salvage: bool = False,
        read_only: bool = False,
    ) -> "Database":
        cache = SharedLruCache(object_config.cache_bytes)
        if fresh:
            chunk_store = ChunkStore.format(
                untrusted, secret, counter, chunk_config, cache=cache
            )
            object_store = ObjectStore.create(chunk_store, object_config, registry)
        elif salvage:
            chunk_store = ChunkStore.open_salvage(
                untrusted, secret, counter, chunk_config, cache=cache
            )
            # Best effort: the object layer needs its catalog chunk, which
            # the damage may have taken out.  The chunk level stays
            # servable either way.
            try:
                object_store = ObjectStore.attach(
                    chunk_store, object_config, registry
                )
            except TDBError:
                object_store = None
        else:
            chunk_store = ChunkStore.open(
                untrusted,
                secret,
                counter,
                chunk_config,
                cache=cache,
                read_only=read_only,
            )
            try:
                object_store = ObjectStore.attach(chunk_store, object_config, registry)
            except BaseException:
                chunk_store.close()
                raise
        collection_store = (
            CollectionStore(object_store, collection_config)
            if object_store is not None
            else None
        )
        return cls(chunk_store, object_store, collection_store, archival)

    @classmethod
    def create(
        cls,
        directory: str,
        chunk_config: Optional[ChunkStoreConfig] = None,
        object_config: Optional[ObjectStoreConfig] = None,
        collection_config: Optional[CollectionStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
    ) -> "Database":
        """Create a new file-backed database under ``directory``."""
        parts = cls._file_parts(directory, create=True)
        return cls._assemble(
            *parts,
            chunk_config or ChunkStoreConfig(),
            object_config or ObjectStoreConfig(),
            collection_config or CollectionStoreConfig(),
            registry,
            fresh=True,
        )

    @classmethod
    def open_existing(
        cls,
        directory: str,
        chunk_config: Optional[ChunkStoreConfig] = None,
        object_config: Optional[ObjectStoreConfig] = None,
        collection_config: Optional[CollectionStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
        salvage: bool = False,
    ) -> "Database":
        """Open (and crash-recover) a file-backed database.

        With ``salvage=True`` a damaged store is opened *read-only*, best
        effort: every chunk whose Merkle path still verifies is served,
        the rest keep raising on access and are enumerated by
        :meth:`scrub`; anomalies (counter skew, discarded log suffix)
        are reported in :attr:`salvage_info` instead of raising.
        """
        parts = cls._file_parts(directory)
        return cls._assemble(
            *parts,
            chunk_config or ChunkStoreConfig(),
            object_config or ObjectStoreConfig(),
            collection_config or CollectionStoreConfig(),
            registry,
            fresh=False,
            salvage=salvage,
        )

    @classmethod
    def in_memory(
        cls,
        chunk_config: Optional[ChunkStoreConfig] = None,
        object_config: Optional[ObjectStoreConfig] = None,
        collection_config: Optional[CollectionStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
        secret: bytes = b"in-memory-demo-secret-0123456789",
    ) -> "Database":
        """Build a throwaway in-memory database (tests, examples)."""
        return cls._assemble(
            MemoryUntrustedStore(),
            MemorySecretStore(secret),
            MemoryOneWayCounter(),
            MemoryArchivalStore(),
            chunk_config or ChunkStoreConfig(),
            object_config or ObjectStoreConfig(),
            collection_config or CollectionStoreConfig(),
            registry,
            fresh=True,
        )

    @staticmethod
    def _file_parts(directory: str, create: bool = False):
        """``(untrusted, secret, counter, archival)`` of a database directory.

        The one place that knows the file layout (module docstring); a
        replica directory has the same layout.  Only ``create`` makes
        the directory and a fresh secret: without it a directory lacking
        ``secret.key`` raises before any other part, each of which would
        create its file or subdirectory, is built.
        """
        directory = os.path.abspath(directory)
        if create:
            os.makedirs(directory, exist_ok=True)
        secret = FileSecretStore(os.path.join(directory, "secret.key"), create=create)
        untrusted = FileUntrustedStore(os.path.join(directory, "data"))
        counter = FileOneWayCounter(os.path.join(directory, "counter"))
        archival = FileArchivalStore(os.path.join(directory, "archive"))
        return untrusted, secret, counter, archival

    # ------------------------------------------------------------------
    # Registration conveniences
    # ------------------------------------------------------------------

    def register_class(self, cls: Type[Persistent]) -> Type[Persistent]:
        """Register a persistent class with this database's registry."""
        return self._require_objects().registry.register(cls)

    def register_indexer(self, indexer: Indexer) -> Indexer:
        """Register an indexer (must be repeated after each open)."""
        self._require_objects()
        return self.collection_store.register_indexer(indexer)

    def _require_objects(self) -> ObjectStore:
        if self.object_store is None:
            raise TDBError(
                "the object layer is unavailable: its catalog chunk did not "
                "survive; use scrub()/export_surviving() at the chunk level"
            )
        return self.object_store

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin an object-store transaction."""
        return self._require_objects().transaction()

    def ctransaction(self) -> CTransaction:
        """Begin a collection-store transaction."""
        self._require_objects()
        return self.collection_store.transaction()

    def scrub(self):
        """Merkle-verify the whole chunk level; returns a DamageReport.

        Every reachable map node and chunk payload is re-read and
        re-hashed (see :meth:`~repro.chunkstore.store.ChunkStore.scrub`).
        """
        return self.chunk_store.scrub()

    def export_surviving(self):
        """Scrub and return ``(DamageReport, {chunk_id: plaintext})``."""
        return self.chunk_store.export_surviving()

    def backup_store(self) -> BackupStore:
        """A backup store over this database's archival store and secret."""
        return BackupStore(self.archival, self.chunk_store.secret_store)

    def snapshot(self):
        """Copy-on-write snapshot of the chunk level."""
        return self.chunk_store.snapshot()

    def stats(self):
        """Chunk-store statistics (size, utilization, cleaner counters)."""
        return self.chunk_store.stats()

    def io_stats(self):
        """The untrusted store's :class:`~repro.platform.iostats.IOStats`."""
        return self.chunk_store.untrusted.stats

    @property
    def group_commit(self):
        """The object store's group-commit coordinator, the one commit
        path of its transactions; ``None`` for a salvage stack whose
        catalog did not survive."""
        store = self.object_store
        return None if store is None else store.group_commit

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the stack.  Idempotent and safe to call from any thread
        (the service layer closes while sessions are still draining)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self.collection_store is not None:
            self.collection_store.close()  # closes the whole stack
        else:
            self.chunk_store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
