"""The :class:`CollectionStore` facade.

Binds the collection layer to an object store and owns the runtime
indexer registry — the piece that cannot be persisted (extractor
functions) and must be re-registered by the application after restart,
mirroring the paper's requirement that applications construct their
``Indexer`` objects and hand them to the collection store.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.collectionstore.btree import BTreeNode
from repro.collectionstore.collection import Collection
from repro.collectionstore.ctransaction import CTransaction
from repro.collectionstore.hashtable import HashBucket, HashDirectory
from repro.collectionstore.indexer import Indexer
from repro.collectionstore.listindex import ListNode, ListRoot
from repro.config import CollectionStoreConfig
from repro.errors import SchemaError
from repro.objectstore.persistent import ClassRegistry
from repro.objectstore.store import ObjectStore

__all__ = ["CollectionStore", "register_collection_classes"]


def register_collection_classes(registry: ClassRegistry) -> None:
    """Register the collection store's persistent meta-object classes."""
    for cls in (Collection, BTreeNode, HashDirectory, HashBucket, ListRoot, ListNode):
        registry.register(cls)


class CollectionStore:
    """Keyed access to collections of objects over an object store."""

    def __init__(
        self,
        object_store: ObjectStore,
        config: Optional[CollectionStoreConfig] = None,
    ) -> None:
        self.object_store = object_store
        self.config = config or CollectionStoreConfig()
        self._indexers: Dict[str, Indexer] = {}
        register_collection_classes(object_store.registry)

    # ------------------------------------------------------------------
    # Indexer registry
    # ------------------------------------------------------------------

    def register_indexer(self, indexer: Indexer) -> Indexer:
        """Associate an indexer (with its extractor) under its name.

        Must be called after restart for every index that will be used —
        extractor functions cannot be persisted.  Registering a different
        indexer under an existing name is rejected.
        """
        existing = self._indexers.get(indexer.name)
        if existing is not None and (
            existing.schema_class is not indexer.schema_class
            or existing.unique != indexer.unique
            or existing.kind != indexer.kind
        ):
            # Extractor identity is deliberately not compared: after a
            # restart the application re-creates its extractor functions.
            raise SchemaError(
                f"an indexer named {indexer.name!r} is already registered "
                "with a different definition"
            )
        self._indexers[indexer.name] = indexer
        return indexer

    def has_indexer(self, name: str) -> bool:
        return name in self._indexers

    def indexer(self, name: str) -> Indexer:
        indexer = self._indexers.get(name)
        if indexer is None:
            raise SchemaError(
                f"no indexer registered under {name!r}; register the "
                "application's Indexer objects after opening the database"
            )
        return indexer

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self) -> CTransaction:
        """Begin a collection-store transaction (Figure 5 interface)."""
        return CTransaction(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the whole stack beneath this store."""
        self.object_store.close()

    def __enter__(self) -> "CollectionStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
