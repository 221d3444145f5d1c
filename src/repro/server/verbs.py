"""The remote data model and the data-verb executor.

The server speaks a JSON data model: values live in
:class:`RemoteRecord` persistent objects, collections are indexed by
record fields, and the ``obj.*`` / ``name.*`` / ``col.*`` verbs map
onto ``Database.transaction()`` / ``ctransaction()``.  The executor is
stateless, so one instance serves every session of a server, plain
database or tenancy hub alike.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.collectionstore import Indexer
from repro.collectionstore.jsonrecord import JsonRecord, field_index_name, json_field_indexer
from repro.errors import ProtocolError, SchemaError, SessionStateError
from repro.server.protocol import Verb

__all__ = [
    "RemoteRecord",
    "VerbExecutor",
    "field_indexer",
]


class RemoteRecord(JsonRecord):
    """A JSON value as a persistent object (the service's data model)."""

    class_id = "server.record"


def _index_name(collection: str, field: str) -> str:
    return field_index_name("field", collection, field)


def field_indexer(
    collection: str, field: str, kind: str = "btree", unique: bool = False
) -> Indexer:
    """Indexer over ``RemoteRecord`` keyed by one field of the value."""
    return json_field_indexer(RemoteRecord, "field", collection, field, kind, unique)


_REQUIRED = object()


def param(request: Dict[str, Any], name: str, kind: Optional[type] = None,
          default: Any = _REQUIRED) -> Any:
    """One named parameter of a request frame, type-checked.

    Missing or ``null`` yields ``default``; without one the parameter
    is required.  ``kind`` (``int`` or ``str``) is the JSON type the
    value must have; without it any JSON value passes.  Every violation
    is a :class:`ProtocolError` the session answers — request frames
    come from outside, so a mistyped value must never escape the verb.
    """
    value = request.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ProtocolError(f"missing parameter {name!r}")
        return default
    if kind is not None and (
        not isinstance(value, kind) or isinstance(value, bool)
    ):
        wanted = "an integer" if kind is int else "a string"
        raise ProtocolError(
            f"parameter {name!r} must be {wanted}, got {value!r}"
        )
    return value


def require_txn(txn, mode: Optional[str], needed: str):
    """``txn`` if it is open in the ``needed`` mode, else SessionStateError."""
    if txn is None:
        raise SessionStateError(
            f"no open transaction; send begin(mode={needed!r}) first"
        )
    if mode != needed:
        raise SessionStateError(
            f"verb needs a {needed} transaction, session has {mode}"
        )
    return txn


class VerbExecutor:
    """Executes data verbs against an open transaction.

    Stateless apart from the result cap: the database and transaction
    are passed per call, so one executor serves every session of a
    server (and survives a replica applier swapping the database).
    """

    def __init__(self, max_results: int = 1000) -> None:
        self.max_results = max_results

    def execute(
        self, verb: Verb, db, request: Dict[str, Any], txn, mode: Optional[str]
    ) -> Dict[str, Any]:
        """Run data verb ``verb`` (a row of the verb table)."""
        return getattr(self, verb.handler)(db, request, txn, mode)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _collection_handle(self, db, txn, mode, name: str, writable: bool):
        ct = require_txn(txn, mode, "collection")
        handle = (
            ct.write_collection(name) if writable else ct.read_collection(name)
        )
        # Register field indexers for descriptors created in earlier
        # server lifetimes, once per database: the descriptor name
        # encodes the field, so the extractor can always be rebuilt.
        store = db.collection_store
        for descriptor in handle.collection.indexes:
            if store.has_indexer(descriptor.name):
                continue
            parts = descriptor.name.split(":", 2)
            if len(parts) == 3 and parts[0] == "field":
                store.register_indexer(
                    field_indexer(
                        parts[1], parts[2],
                        kind=descriptor.kind, unique=descriptor.unique,
                    )
                )
        return handle

    @staticmethod
    def _indexer_for(db, handle, field: Optional[str]) -> Indexer:
        store = db.collection_store
        if field is not None:
            name = _index_name(handle.name, field)
            if handle.collection.descriptor(name) is None:
                raise SchemaError(
                    f"collection {handle.name!r} has no index on field "
                    f"{field!r}"
                )
            return store.indexer(name)
        if not handle.collection.indexes:
            raise SchemaError(f"collection {handle.name!r} has no indexes")
        return store.indexer(handle.collection.indexes[0].name)

    @staticmethod
    def _drain(iterator, limit: int) -> List[Any]:
        values = []
        try:
            while not iterator.end() and len(values) < limit:
                values.append(iterator.read().deref().value)
                iterator.next()
        finally:
            iterator.close()
        return values

    # ------------------------------------------------------------------
    # Object verbs
    # ------------------------------------------------------------------

    def _op_obj_put(self, db, request, txn, mode) -> Dict[str, Any]:
        txn = require_txn(txn, mode, "object")
        value = param(request, "value", default=None)
        oid = param(request, "oid", int, None)
        if oid is None:
            oid = txn.insert(RemoteRecord(value))
        else:
            ref = txn.open_writable(oid, RemoteRecord)
            ref.deref().value = value
        return {"oid": oid}

    def _op_obj_get(self, db, request, txn, mode) -> Dict[str, Any]:
        txn = require_txn(txn, mode, "object")
        oid = param(request, "oid", int)
        ref = txn.open_readonly(oid, RemoteRecord)
        return {"oid": oid, "value": ref.deref().value}

    def _op_obj_remove(self, db, request, txn, mode) -> Dict[str, Any]:
        txn = require_txn(txn, mode, "object")
        oid = param(request, "oid", int)
        txn.remove(oid)
        return {"oid": oid}

    def _op_name_bind(self, db, request, txn, mode) -> Dict[str, Any]:
        txn = require_txn(txn, mode, "object")
        name = param(request, "name", str)
        oid = param(request, "oid", int)
        txn.bind_name(name, oid)
        return {"name": name, "oid": oid}

    def _op_name_lookup(self, db, request, txn, mode) -> Dict[str, Any]:
        txn = require_txn(txn, mode, "object")
        name = param(request, "name", str)
        return {"name": name, "oid": txn.lookup_name(name)}

    # ------------------------------------------------------------------
    # Collection verbs
    # ------------------------------------------------------------------

    def _op_col_create(self, db, request, txn, mode) -> Dict[str, Any]:
        ct = require_txn(txn, mode, "collection")
        name = param(request, "name", str)
        field = param(request, "field", str)
        kind = param(request, "kind", str, "btree")
        unique = bool(param(request, "unique", default=False))
        indexer = field_indexer(name, field, kind=kind, unique=unique)
        ct.create_collection(name, indexer)
        return {"name": name, "index": indexer.name}

    def _op_col_insert(self, db, request, txn, mode) -> Dict[str, Any]:
        handle = self._collection_handle(
            db, txn, mode, param(request, "name", str), writable=True
        )
        value = param(request, "value")
        oid = handle.insert(RemoteRecord(value))
        return {"oid": oid, "count": handle.count}

    def _op_col_get(self, db, request, txn, mode) -> Dict[str, Any]:
        handle = self._collection_handle(
            db, txn, mode, param(request, "name", str), writable=False
        )
        key = param(request, "key")
        field = param(request, "field", str, None)
        indexer = self._indexer_for(db, handle, field)
        iterator = handle.query_match(indexer, key)
        values = self._drain(iterator, self.max_results)
        return {"values": values}

    def _op_col_remove(self, db, request, txn, mode) -> Dict[str, Any]:
        handle = self._collection_handle(
            db, txn, mode, param(request, "name", str), writable=True
        )
        key = param(request, "key")
        field = param(request, "field", str, None)
        indexer = self._indexer_for(db, handle, field)
        iterator = handle.query_match(indexer, key)
        removed = 0
        try:
            while not iterator.end():
                iterator.delete()
                removed += 1
                iterator.next()
        finally:
            iterator.close()
        return {"removed": removed, "count": handle.count}

    def _op_col_iterate(self, db, request, txn, mode) -> Dict[str, Any]:
        handle = self._collection_handle(
            db, txn, mode, param(request, "name", str), writable=False
        )
        field = param(request, "field", str, None)
        lo = param(request, "lo", default=None)
        hi = param(request, "hi", default=None)
        limit = min(
            param(request, "limit", int, self.max_results), self.max_results
        )
        indexer = self._indexer_for(db, handle, field)
        if lo is not None or hi is not None:
            iterator = handle.query_range(indexer, lo, hi)
        else:
            iterator = handle.query(indexer)
        values = self._drain(iterator, limit)
        return {"values": values, "count": handle.count}
