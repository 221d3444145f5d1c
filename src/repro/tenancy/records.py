"""Persistent record types of the tenancy control plane.

Principals, policy grants, audit events, and the tenant's meter/meta
objects are stored *through the store itself* — ordinary TDB records in
reserved collections of the tenant's own database — but deliberately
**not** as :class:`~repro.server.verbs.RemoteRecord`.

:class:`TenancyRecord` carries the same JSON payload shape yet is a
distinct persistent class (``class_id`` ``"tenancy.record"``).  The wire
data verbs type-check every dereference against ``RemoteRecord``, so a
principal who has somehow learned the raw oid of a ``_principals`` or
``_policy`` record still cannot open it through ``obj.get`` /
``obj.put``: the object store's dynamic type check refuses with
:class:`~repro.errors.TypeCheckError`.  The control plane fails closed
at the type system, not at a name filter.

Reserved collections (created by :meth:`TenantRegistry.create`):

``_principals``
    ``{"name": str, "secret": hex}`` — unique index on ``name``.
``_policy``
    ``{"principal": str, "scope": str, "right": str}`` — index on
    ``principal``.
``_audit``
    ``{"seq": int, "ts": float, "event": str, "principal": str|None,
    "detail": {...}}`` — index on ``seq``.

Their indexes are named ``tfield:{collection}:{field}`` — a prefix the
wire executor's indexer re-registration loop (which only rebuilds
``field:`` descriptors) deliberately skips, so the two data models never
mix even at the index layer.
"""

from __future__ import annotations

from repro.collectionstore import Indexer
from repro.collectionstore.jsonrecord import JsonRecord, field_index_name, json_field_indexer

__all__ = [
    "TenancyRecord",
    "tenancy_indexer",
    "PRINCIPALS",
    "POLICY",
    "AUDIT",
    "RESERVED_COLLECTIONS",
    "META_NAME",
    "METER_NAME",
]

#: Reserved collection names inside every tenant database.
PRINCIPALS = "_principals"
POLICY = "_policy"
AUDIT = "_audit"
RESERVED_COLLECTIONS = (PRINCIPALS, POLICY, AUDIT)

#: Reserved object names (``name.bind`` targets) inside every tenant
#: database: the tenant's metadata (quota configuration) and the durable
#: meter counters.
META_NAME = "_tenant"
METER_NAME = "_meter"


class TenancyRecord(JsonRecord):
    """A JSON value owned by the tenancy control plane.

    Same payload model as ``RemoteRecord``, different class identity —
    that difference *is* the access-control boundary (see module
    docstring).
    """

    class_id = "tenancy.record"


def index_name(collection: str, field: str) -> str:
    return field_index_name("tfield", collection, field)


def tenancy_indexer(
    collection: str, field: str, kind: str = "btree", unique: bool = False
) -> Indexer:
    """Indexer over ``TenancyRecord`` keyed by one field of the value."""
    return json_field_indexer(TenancyRecord, "tfield", collection, field, kind, unique)


def control_plane_indexers():
    """The indexers of the three reserved collections (fresh instances)."""
    return (
        tenancy_indexer(PRINCIPALS, "name", unique=True),
        tenancy_indexer(POLICY, "principal"),
        tenancy_indexer(AUDIT, "seq", unique=True),
    )
