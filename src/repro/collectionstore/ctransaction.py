"""CTransaction: the transaction type collection applications use.

Unlike the object store's :class:`Transaction`, a :class:`CTransaction`
does not expose methods to directly create, update, or delete objects —
the paper's constraint 1: writable references to collection objects can
only be obtained by dereferencing an iterator, which is what lets the
collection store guarantee iterator insensitivity.  What it does expose
is the Figure 5 interface: create / read / write / remove named
collections, plus commit and abort.
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectionstore.collection import Collection, CollectionHandle
from repro.collectionstore.indexer import Indexer
from repro.collectionstore.iterators import CollectionIterator
from repro.errors import CollectionStoreError, IteratorStateError

__all__ = ["CTransaction"]


class CTransaction:
    """One transaction over named collections (Figure 5 of the paper)."""

    def __init__(self, store) -> None:
        self.store = store
        self._txn = store.object_store.transaction()
        self._open_iterators: Dict[int, List[CollectionIterator]] = {}

    @property
    def active(self) -> bool:
        return self._txn.active

    # ------------------------------------------------------------------
    # Collection lifecycle (Figure 5)
    # ------------------------------------------------------------------

    def create_collection(self, name: str, indexer: Indexer) -> CollectionHandle:
        """Create a new named collection with one initial index."""
        if self._txn.lookup_name(name) is not None:
            raise CollectionStoreError(f"collection {name!r} already exists")
        self.store.register_indexer(indexer)
        collection = Collection(indexer.schema_class.class_id)
        oid = self._txn.insert(collection)
        self._txn.bind_name(name, oid)
        handle = CollectionHandle(self, name, oid, writable=True)
        root_oid = handle._create_root(indexer)
        from repro.collectionstore.indexer import IndexDescriptor

        collection.indexes.append(
            IndexDescriptor(
                name=indexer.name,
                kind=indexer.kind,
                unique=indexer.unique,
                root_oid=root_oid,
            )
        )
        return handle

    def read_collection(self, name: str) -> CollectionHandle:
        """Open an existing collection read-only."""
        return self._open_collection(name, writable=False)

    def write_collection(self, name: str) -> CollectionHandle:
        """Open an existing collection for modification."""
        return self._open_collection(name, writable=True)

    def _open_collection(self, name: str, writable: bool) -> CollectionHandle:
        oid = self._txn.lookup_name(name)
        if oid is None:
            raise CollectionStoreError(f"no collection named {name!r}")
        return CollectionHandle(self, name, oid, writable=writable)

    def remove_collection(self, name: str) -> None:
        """Drop a collection along with every object it contains."""
        handle = self.write_collection(name)
        if self._open_iterators.get(handle.oid):
            raise IteratorStateError(
                f"collection {name!r} has open iterators; close them first"
            )
        for oid in handle._member_oids():
            self._txn.remove(oid)
        for descriptor in list(handle.collection.indexes):
            handle._impl(descriptor).destroy()
        handle.collection.indexes.clear()
        self._txn.remove(handle.oid)
        self._txn.unbind_name(name)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def commit(self, durable: bool = True) -> None:
        """Commit; every iterator must be closed first (its close applies
        the deferred index maintenance and may raise)."""
        still_open = [
            iterator
            for iterators in self._open_iterators.values()
            for iterator in iterators
        ]
        if still_open:
            raise IteratorStateError(
                f"{len(still_open)} iterator(s) still open at commit; close "
                "them to apply their deferred index updates"
            )
        self._txn.commit(durable=durable)

    def abort(self) -> None:
        """Abort; open iterators are abandoned along with their updates."""
        for iterators in list(self._open_iterators.values()):
            for iterator in list(iterators):
                iterator.abandon()
        self._open_iterators.clear()
        self._txn.abort()

    def __enter__(self) -> "CTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    # ------------------------------------------------------------------
    # Iterator registry (constraint 2 of section 5.2.2)
    # ------------------------------------------------------------------

    def _open_iterator(
        self, handle: CollectionHandle, oids: List[int]
    ) -> CollectionIterator:
        iterator = CollectionIterator(self, handle, oids)
        self._open_iterators.setdefault(handle.oid, []).append(iterator)
        return iterator

    def _iterator_closed(self, iterator: CollectionIterator) -> None:
        iterators = self._open_iterators.get(iterator.handle.oid)
        if iterators and iterator in iterators:
            iterators.remove(iterator)
            if not iterators:
                del self._open_iterators[iterator.handle.oid]

    def _assert_sole_iterator(self, iterator: CollectionIterator) -> None:
        others = [
            other
            for other in self._open_iterators.get(iterator.handle.oid, [])
            if other is not iterator
        ]
        if others:
            raise IteratorStateError(
                "another iterator on the same collection is open; writable "
                "dereference requires exclusivity (insensitivity constraint)"
            )
