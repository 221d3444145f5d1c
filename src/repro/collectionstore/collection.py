"""Collections and the handles used to operate on them.

A :class:`Collection` is itself a persistent object (as in the paper,
where ``Collection`` subclasses ``Object``): it stores the schema class
id, the member count, and one :class:`IndexDescriptor` per index.  All
behaviour lives in :class:`CollectionHandle`, which binds a collection to
a :class:`CTransaction` — the handle checks writability, resolves
descriptors to registered indexers (the extractor functions), and builds
the right index implementation for each query or update.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.collectionstore.btree import BTreeIndex
from repro.collectionstore.hashtable import HashIndex
from repro.collectionstore.indexer import IndexDescriptor, Indexer
from repro.collectionstore.keys import compare_keys
from repro.collectionstore.listindex import ListIndex
from repro.errors import (
    CollectionStoreError,
    DuplicateKeyError,
    SchemaError,
)
from repro.objectstore.encoding import BufferReader, BufferWriter
from repro.objectstore.persistent import Persistent

__all__ = ["Collection", "CollectionHandle"]


class Collection(Persistent):
    """Persistent state of one collection."""

    class_id = "tdb.collection"

    def __init__(self, schema_class_id: str = "") -> None:
        self.schema_class_id = schema_class_id
        self.count = 0
        self.indexes: List[IndexDescriptor] = []

    def pickle(self) -> bytes:
        writer = BufferWriter()
        writer.write_str(self.schema_class_id)
        writer.write_uint(self.count)
        writer.write_list(self.indexes, lambda w, d: d.write_to(w))
        return writer.getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Collection":
        reader = BufferReader(data)
        collection = cls(reader.read_str())
        collection.count = reader.read_uint()
        collection.indexes = reader.read_list(IndexDescriptor.read_from)
        reader.expect_end()
        return collection

    def descriptor(self, name: str) -> Optional[IndexDescriptor]:
        for descriptor in self.indexes:
            if descriptor.name == name:
                return descriptor
        return None


class CollectionHandle:
    """A collection bound to a transaction, read-only or writable."""

    def __init__(self, ctransaction, name: str, oid: int, writable: bool) -> None:
        self.ct = ctransaction
        self.name = name
        self.oid = oid
        self.writable = writable
        txn = ctransaction._txn
        if writable:
            self._ref = txn.open_writable(oid, Collection)
        else:
            self._ref = txn.open_readonly(oid, Collection)

    # -- plumbing ----------------------------------------------------------------

    @property
    def collection(self) -> Collection:
        return self._ref.deref()

    @property
    def count(self) -> int:
        """Number of objects currently in the collection."""
        return self.collection.count

    @property
    def schema_class(self):
        return self.ct.store.object_store.registry.lookup(
            self.collection.schema_class_id
        )

    def index_names(self) -> List[str]:
        return [descriptor.name for descriptor in self.collection.indexes]

    def _require_writable(self) -> None:
        if not self.writable:
            raise CollectionStoreError(
                f"collection {self.name!r} was opened read-only"
            )

    def _descriptor_for(self, indexer: Indexer) -> IndexDescriptor:
        descriptor = self.collection.descriptor(indexer.name)
        if descriptor is None:
            raise SchemaError(
                f"collection {self.name!r} has no index {indexer.name!r}"
            )
        descriptor.matches(indexer)
        return descriptor

    def _indexer_for(self, descriptor: IndexDescriptor) -> Indexer:
        return self.ct.store.indexer(descriptor.name)

    def _impl(self, descriptor: IndexDescriptor):
        config = self.ct.store.config
        txn = self.ct._txn
        if descriptor.kind == "btree":
            return BTreeIndex(txn, descriptor.root_oid, config.btree_order)
        if descriptor.kind == "hash":
            return HashIndex(
                txn,
                descriptor.root_oid,
                initial_buckets=config.hash_initial_buckets,
            )
        return ListIndex(txn, descriptor.root_oid, config.list_node_capacity)

    def _create_root(self, indexer: Indexer) -> int:
        txn = self.ct._txn
        config = self.ct.store.config
        if indexer.kind == "btree":
            return BTreeIndex.create(txn, config.btree_order)
        if indexer.kind == "hash":
            return HashIndex.create(txn, config.hash_initial_buckets)
        return ListIndex.create(txn)

    def _check_schema(self, obj: Persistent) -> None:
        schema_class = self.schema_class
        if not isinstance(obj, schema_class):
            raise SchemaError(
                f"collection {self.name!r} stores {schema_class.__name__} "
                f"objects (or subclasses), got {type(obj).__name__}"
            )

    # -- membership ----------------------------------------------------------------

    def insert(self, obj: Persistent) -> int:
        """Add ``obj`` to the collection, updating every index.

        Raises :class:`DuplicateKeyError` (and inserts nothing) when the
        object would create a duplicate in a unique index.
        """
        self._require_writable()
        self._check_schema(obj)
        pairs = []
        for descriptor in self.collection.indexes:
            indexer = self._indexer_for(descriptor)
            key = indexer.extract(obj)
            pairs.append((descriptor, key))
        # Check all unique indexes before touching anything.
        for descriptor, key in pairs:
            if descriptor.unique and self._impl(descriptor).lookup(key):
                raise DuplicateKeyError(
                    f"insert into {self.name!r} would duplicate key {key!r} "
                    f"in unique index {descriptor.name!r}",
                    key=key,
                )
        oid = self.ct._txn.insert(obj)
        for descriptor, key in pairs:
            self._impl(descriptor).insert(key, oid, unique=False)
        self.collection.count += 1
        return oid

    # -- index management ------------------------------------------------------------

    def create_index(self, indexer: Indexer) -> None:
        """Add an index, populating it from the current members.

        Raises :class:`DuplicateKeyError` when a new unique index would
        cover duplicate keys (paper section 5.1.2); abort the transaction
        to undo the partial build.
        """
        self._require_writable()
        if self.collection.descriptor(indexer.name) is not None:
            raise SchemaError(
                f"collection {self.name!r} already has index {indexer.name!r}"
            )
        if indexer.schema_class.class_id != self.collection.schema_class_id:
            raise SchemaError(
                f"index {indexer.name!r} is defined over "
                f"{indexer.schema_class.__name__}, not this collection's schema"
            )
        self.ct.store.register_indexer(indexer)
        root_oid = self._create_root(indexer)
        descriptor = IndexDescriptor(
            name=indexer.name,
            kind=indexer.kind,
            unique=indexer.unique,
            root_oid=root_oid,
        )
        implementation = self._impl(descriptor)
        for oid in self._member_oids():
            obj = self.ct._txn.open_readonly(oid).deref()
            implementation.insert(indexer.extract(obj), oid, indexer.unique)
        self.collection.indexes.append(descriptor)

    def remove_index(self, indexer: Indexer) -> None:
        """Drop an index; a collection must keep at least one."""
        self._require_writable()
        descriptor = self._descriptor_for(indexer)
        if len(self.collection.indexes) <= 1:
            raise CollectionStoreError(
                f"cannot remove the only index of collection {self.name!r}"
            )
        self._impl(descriptor).destroy()
        self.collection.indexes.remove(descriptor)

    def _member_oids(self) -> List[int]:
        """Object ids of all members (via the first index)."""
        if not self.collection.indexes:
            return []
        implementation = self._impl(self.collection.indexes[0])
        return [oid for _key, oid in implementation.scan()]

    # -- queries ------------------------------------------------------------------------

    def query(self, indexer: Indexer):
        """Scan query: every object, in the index's natural order."""
        descriptor = self._descriptor_for(indexer)
        oids = [oid for _key, oid in self._impl(descriptor).scan()]
        return self.ct._open_iterator(self, oids)

    def query_match(self, indexer: Indexer, key: object):
        """Exact-match query."""
        descriptor = self._descriptor_for(indexer)
        oids = self._impl(descriptor).lookup(key)
        return self.ct._open_iterator(self, oids)

    def query_range(self, indexer: Indexer, low: object, high: object):
        """Inclusive range query (B+tree indexes only)."""
        descriptor = self._descriptor_for(indexer)
        if descriptor.kind != "btree":
            raise CollectionStoreError(
                f"index {indexer.name!r} is a {descriptor.kind} index; "
                "range queries need a btree index"
            )
        oids = [oid for _key, oid in self._impl(descriptor).range(low, high)]
        return self.ct._open_iterator(self, oids)

    # -- iterator support (key snapshots, deferred maintenance) ---------------------------

    def _key_snapshot(self, obj: Persistent) -> Dict[str, object]:
        """Current key of ``obj`` under every index (paper section 5.2.3)."""
        snapshot = {}
        for descriptor in self.collection.indexes:
            indexer = self._indexer_for(descriptor)
            snapshot[descriptor.name] = indexer.extract(obj)
        return snapshot

    def _apply_deferred(self, written, deleted) -> List[int]:
        """Apply an iterator's deferred updates; return violator oids.

        ``written``: oid -> pre-update key snapshot.
        ``deleted``: oid -> pre-delete key snapshot.
        """
        txn = self.ct._txn
        for oid in sorted(deleted):
            pre_keys = deleted[oid]
            for descriptor in self.collection.indexes:
                self._impl(descriptor).remove(pre_keys[descriptor.name], oid)
            txn.remove(oid)
            self.collection.count -= 1

        # Updates run in two phases over the whole write set so that
        # objects exchanging unique keys through one iterator do not trip
        # a spurious violation: first every stale entry leaves the
        # indexes, then the new entries go in with uniqueness checks.
        plans = []
        for oid in sorted(written):
            pre_keys = written[oid]
            obj = txn.open_readonly(oid).deref()
            post_keys = self._key_snapshot(obj)
            changed = [
                descriptor
                for descriptor in self.collection.indexes
                if compare_keys(
                    post_keys[descriptor.name], pre_keys[descriptor.name]
                )
                != 0
            ]
            for descriptor in changed:
                self._impl(descriptor).remove(pre_keys[descriptor.name], oid)
            plans.append((oid, post_keys, changed))

        violators: List[int] = []
        for oid, post_keys, changed in plans:
            inserted: List[IndexDescriptor] = []
            violation = False
            for descriptor in changed:
                implementation = self._impl(descriptor)
                key = post_keys[descriptor.name]
                if descriptor.unique and implementation.lookup(key):
                    violation = True
                    break
                implementation.insert(key, oid, unique=False)
                inserted.append(descriptor)
            if violation:
                # Remove the object from the collection entirely: undo the
                # keys inserted so far, then drop it from the untouched
                # indexes (their key did not change).
                for descriptor in inserted:
                    self._impl(descriptor).remove(post_keys[descriptor.name], oid)
                for descriptor in self.collection.indexes:
                    if descriptor not in changed:
                        self._impl(descriptor).remove(
                            post_keys[descriptor.name], oid
                        )
                self.collection.count -= 1
                violators.append(oid)
        return violators
