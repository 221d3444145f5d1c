"""The :class:`ObjectStore` facade.

Assembles the object layer over a chunk store::

    object_store = ObjectStore.create(chunk_store)     # fresh database
    object_store = ObjectStore.attach(chunk_store)     # existing database

    with object_store.transaction() as txn:
        oid = txn.insert(Meter())
        txn.set_root(oid)

The store owns the lock manager, the class registry, the group-commit
coordinator every transaction commits through, and the catalog — a
reserved persistent object holding the root object id and the name
registry (named objects are what the collection store builds on).  The
shared LRU cache is the chunk store's: object-cache entries and
location-map nodes compete for one budget, as in the paper.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

from repro.chunkstore import ChunkStore
from repro.config import ObjectStoreConfig
from repro.errors import ObjectStoreError, PicklingError
from repro.objectstore.encoding import BufferReader, BufferWriter
from repro.objectstore.groupcommit import GroupCommitCoordinator
from repro.objectstore.locks import LockManager
from repro.objectstore.persistent import ClassRegistry, Persistent, global_registry
from repro.objectstore.transaction import Transaction

__all__ = ["ObjectStore", "Catalog"]


class Catalog(Persistent):
    """The reserved object holding the root id and the name registry."""

    class_id = "tdb.catalog"

    def __init__(self) -> None:
        self.root_oid: Optional[int] = None
        self.names: Dict[str, int] = {}

    def pickle(self) -> bytes:
        writer = BufferWriter()
        writer.write_optional_uint(self.root_oid)
        writer.write_list(
            sorted(self.names.items()),
            lambda w, item: (w.write_str(item[0]), w.write_uint(item[1])),
        )
        return writer.getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Catalog":
        reader = BufferReader(data)
        catalog = cls()
        catalog.root_oid = reader.read_optional_uint()
        pairs = reader.read_list(lambda r: (r.read_str(), r.read_uint()))
        catalog.names = dict(pairs)
        reader.expect_end()
        return catalog


class ObjectStore:
    """Type-safe transactional access to named persistent objects."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        config: Optional[ObjectStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
        catalog_oid: int = 0,
    ) -> None:
        self.chunk_store = chunk_store
        self.config = config or ObjectStoreConfig()
        self.registry = registry or global_registry
        self.cache = chunk_store.cache
        self.mutex = threading.RLock()
        self.locks = LockManager(
            enabled=self.config.locking, timeout=self.config.lock_timeout
        )
        self.catalog_oid = catalog_oid
        self._txn_ids = itertools.count(1)
        self._closed = False
        # Open write transactions (txn id -> the thread that runs it),
        # from the first granted exclusive lock (every insert takes one)
        # until the commit is submitted or the transaction ends.  Its
        # lock is taken last, under any other.
        self._writers: Dict[int, int] = {}
        self._writers_lock = threading.Lock()
        #: Where every transaction commit lands.
        self.group_commit = GroupCommitCoordinator(chunk_store, self.joinable_writers)
        self.locks.on_wait = self.group_commit.writers_dropped
        self.registry.register(Catalog)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        chunk_store: ChunkStore,
        config: Optional[ObjectStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
    ) -> "ObjectStore":
        """Initialize the object layer on a freshly formatted chunk store."""
        store = cls(chunk_store, config, registry)
        catalog_oid = chunk_store.allocate_chunk_id()
        store.catalog_oid = catalog_oid
        payload = store.registry.pickle_object(Catalog())
        chunk_store.commit({catalog_oid: payload}, durable=True)
        return store

    @classmethod
    def attach(
        cls,
        chunk_store: ChunkStore,
        config: Optional[ObjectStoreConfig] = None,
        registry: Optional[ClassRegistry] = None,
        catalog_oid: int = 0,
    ) -> "ObjectStore":
        """Open the object layer of an existing database."""
        store = cls(chunk_store, config, registry, catalog_oid)
        try:
            payload = chunk_store.read(catalog_oid)
        except Exception as exc:
            raise ObjectStoreError(
                f"no object-store catalog at chunk id {catalog_oid}: {exc}"
            ) from exc
        obj = store.registry.unpickle_object(payload)
        if not isinstance(obj, Catalog):
            raise PicklingError(
                f"chunk {catalog_oid} holds {type(obj).__name__}, not the catalog"
            )
        return store

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin a new transaction."""
        if self._closed:
            raise ObjectStoreError("object store is closed")
        return Transaction(self, next(self._txn_ids))

    def submit_commit(self, writes, deallocs, durable: bool = True) -> None:
        """Apply a transaction's write set through the group commit.

        Called by :meth:`Transaction.commit` *outside* the store mutex:
        the coordinator blocks the caller until its batch is durable,
        and holding the mutex there would serialize committers and
        forbid batching altogether.  Strict 2PL makes this safe — the
        objects involved stay exclusively locked until the commit has
        returned.
        """
        self.group_commit.commit(writes, deallocs, durable=durable)

    @property
    def writers(self) -> int:
        """Open write transactions that have not submitted their commit."""
        return len(self._writers)

    def enter_writer(self, txn_id: int) -> None:
        """Count a transaction whose first exclusive lock was granted."""
        with self._writers_lock:
            self._writers[txn_id] = threading.get_ident()

    def leave_writer(self, txn_id: int, wake: bool = True) -> None:
        """Stop counting a writer, and wake a waiting batch leader
        unless ``wake`` is false (the writer is about to join it)."""
        with self._writers_lock:
            del self._writers[txn_id]
        if wake:
            self.group_commit.writers_dropped()

    def joinable_writers(self) -> int:
        """Writers that could still join the calling thread's commit
        batch: not one of its own thread (blocked in this commit) and
        not one waiting for a lock."""
        me, waiting = threading.get_ident(), self.locks.waiting
        with self._writers_lock:
            return sum(
                thread != me and txn_id not in waiting
                for txn_id, thread in self._writers.items()
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the object layer and the chunk store beneath it."""
        if self._closed:
            return
        self._closed = True
        self.chunk_store.close()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
