"""JSON values as persistent objects, indexed by one field of the value.

The server's data model (``repro.server.verbs.RemoteRecord``) and the
tenancy control plane (``repro.tenancy.records.TenancyRecord``) store
the same payload, one JSON value, and index it the same way.  They share
this body and stay distinct classes: the object store type-checks every
dereference, and that check is what keeps wire clients out of
control-plane records.  So each subclasses :class:`JsonRecord` with its
own ``class_id``, and neither subclasses the other.  Their index names
differ by prefix (``field:`` / ``tfield:``) for the same reason.
"""

from __future__ import annotations

import json
from typing import Any, Type

from repro.collectionstore.indexer import Indexer
from repro.errors import SchemaError
from repro.objectstore.encoding import BufferReader, BufferWriter
from repro.objectstore.persistent import Persistent

__all__ = ["JsonRecord", "field_index_name", "json_field_indexer"]


class JsonRecord(Persistent):
    """One JSON value; concrete subclasses set ``class_id``."""

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def pickle(self) -> bytes:
        body = json.dumps(self.value, separators=(",", ":")).encode("utf-8")
        return BufferWriter().write_bytes(body).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "JsonRecord":
        reader = BufferReader(data)
        value = json.loads(reader.read_bytes().decode("utf-8"))
        reader.expect_end()
        return cls(value)

    def cache_charge(self) -> int:
        return 96 + 8 * len(json.dumps(self.value, separators=(",", ":")))


class _FieldKey:
    """Pure extractor pulling one field out of a record's value."""

    __slots__ = ("field",)

    def __init__(self, field: str) -> None:
        self.field = field

    def __call__(self, record: JsonRecord) -> Any:
        value = record.value
        if not isinstance(value, dict) or self.field not in value:
            raise SchemaError(
                f"record value must be an object with field {self.field!r}"
            )
        return value[self.field]


def field_index_name(prefix: str, collection: str, field: str) -> str:
    return f"{prefix}:{collection}:{field}"


def json_field_indexer(
    record_class: Type[JsonRecord],
    prefix: str,
    collection: str,
    field: str,
    kind: str = "btree",
    unique: bool = False,
) -> Indexer:
    """Indexer over ``record_class`` keyed by one field of the value."""
    if ":" in field:
        raise SchemaError("field names must not contain ':'")
    return Indexer(
        name=field_index_name(prefix, collection, field),
        schema_class=record_class,
        extractor=_FieldKey(field),
        unique=unique,
        kind=kind,
    )
