"""Shard layout, stable routing, and virtual object ids.

The sharded service partitions one logical database into ``N``
independent :class:`~repro.db.Database` instances living under
``<root>/shard-<k>/``.  The partition function is fixed at layout
creation and recorded in ``<root>/sharding.json``; opening the layout
with a different shard count is refused, because every routing decision
below depends on ``N``:

* **names** route by a stable hash of the name,
* **collections** route by a stable hash of the collection name (a
  collection lives wholly on one shard, so iteration and indexes need
  no cross-shard merge),
* **object ids** are *virtual*: the id handed to clients encodes the
  owning shard as ``void = local_oid * N + shard``, so ``obj.get``
  routes arithmetically and ids stay globally unique across shards.
  Fresh inserts carry no key, so the front door places them round-robin
  — any placement is correct because the returned id pins the shard.

Nothing here talks to sockets; :mod:`repro.server.sharded` (front door)
and :mod:`repro.server.shardworker` (worker process) share this module
so both sides agree on the mapping.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

from repro.config import ChunkStoreConfig, SecurityProfile
from repro.errors import ProtocolError, ServerError
from repro.server.verbs import param

__all__ = [
    "BOOTSTRAP_ENV",
    "MANIFEST_NAME",
    "ShardLayout",
    "ShardRouter",
    "shard_of_key",
    "encode_oid",
    "decode_oid",
    "config_to_dict",
    "config_from_dict",
]

MANIFEST_NAME = "sharding.json"
LAYOUT_VERSION = 1

#: Environment variable carrying the worker's JSON bootstrap blob.
#: Lives here (not in :mod:`repro.server.shardworker`) so the front door
#: never imports the worker's module namespace.
BOOTSTRAP_ENV = "TDB_SHARD_BOOTSTRAP"


def config_to_dict(config: Optional[ChunkStoreConfig]) -> Optional[Dict[str, Any]]:
    """JSON-able form of a chunk-store config (for the bootstrap blob)."""
    if config is None:
        return None
    blob = dataclasses.asdict(config)
    blob["security"] = dataclasses.asdict(config.security)
    return blob


def config_from_dict(blob: Optional[Dict[str, Any]]) -> Optional[ChunkStoreConfig]:
    if blob is None:
        return None
    blob = dict(blob)
    security = blob.pop("security", None)
    if security is not None:
        blob["security"] = SecurityProfile(**security)
    return ChunkStoreConfig(**blob)


def shard_of_key(key: str, shards: int) -> int:
    """Stable hash partition of a string key (names, collections)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def encode_oid(local_oid: int, shard: int, shards: int) -> int:
    """Virtual object id handed to clients."""
    return local_oid * shards + shard


def decode_oid(virtual_oid: int, shards: int) -> Tuple[int, int]:
    """``(local_oid, shard)`` for a client-visible object id."""
    if virtual_oid < 0:
        raise ProtocolError(f"object ids are non-negative, got {virtual_oid}")
    return virtual_oid // shards, virtual_oid % shards


class ShardLayout:
    """The on-disk shape of a sharded database root."""

    def __init__(self, root: str, shards: int) -> None:
        if shards < 1:
            raise ServerError("shard count must be at least 1")
        self.root = os.path.abspath(root)
        self.shards = shards

    # -- paths ----------------------------------------------------------

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.root, f"shard-{shard}")

    @property
    def coord_dir(self) -> str:
        return os.path.join(self.root, "coord")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    # -- creation / opening ---------------------------------------------

    @classmethod
    def create(cls, root: str, shards: int) -> "ShardLayout":
        layout = cls(root, shards)
        os.makedirs(layout.root, exist_ok=True)
        if os.path.exists(layout.manifest_path):
            raise ServerError(f"{layout.manifest_path} already exists")
        if os.path.exists(os.path.join(layout.root, "data")):
            raise ServerError(
                f"{layout.root} holds an unsharded database; refusing to "
                "overlay a shard layout on it"
            )
        os.makedirs(layout.coord_dir, exist_ok=True)
        for shard in range(shards):
            os.makedirs(layout.shard_dir(shard), exist_ok=True)
        blob = json.dumps(
            {"version": LAYOUT_VERSION, "shards": shards}, indent=2
        ).encode("utf-8")
        tmp = layout.manifest_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, layout.manifest_path)
        return layout

    @classmethod
    def open(cls, root: str, shards: Optional[int] = None) -> "ShardLayout":
        """Open an existing layout; ``shards`` (if given) must match."""
        path = os.path.join(os.path.abspath(root), MANIFEST_NAME)
        try:
            with open(path, "rb") as fh:
                manifest = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            raise ServerError(
                f"{root} has no {MANIFEST_NAME}; create the layout first "
                "(serve --shards N on an empty directory)"
            ) from None
        except (OSError, ValueError) as exc:
            raise ServerError(f"unreadable shard manifest {path}: {exc}") from exc
        recorded = manifest.get("shards")
        if not isinstance(recorded, int) or recorded < 1:
            raise ServerError(f"corrupt shard manifest {path}")
        if shards is not None and shards != recorded:
            raise ServerError(
                f"layout at {root} was created with {recorded} shards; "
                f"refusing to open it with {shards} (virtual object ids "
                "and key routing are functions of the shard count)"
            )
        return cls(root, recorded)

    @classmethod
    def open_or_create(cls, root: str, shards: int) -> "ShardLayout":
        path = os.path.join(os.path.abspath(root), MANIFEST_NAME)
        if os.path.exists(path):
            return cls.open(root, shards)
        return cls.create(root, shards)


class ShardRouter:
    """Maps client requests to ``(shard, worker-request)`` pairs.

    Oid translation happens here, at the front door: workers always see
    local ids, clients always see virtual ids, and ``name.bind`` values
    pass through untouched (a bound value is an opaque integer to the
    catalog, so it may carry a virtual id pointing at another shard).
    """

    def __init__(self, layout: ShardLayout) -> None:
        self.layout = layout
        self._routed: Dict[str, int] = {}

    def shard_for_name(self, name: str) -> int:
        return shard_of_key(name, self.layout.shards)

    def route(
        self, request: Dict[str, Any], insert_shard: int
    ) -> Tuple[int, Dict[str, Any]]:
        """``(shard, translated request)`` for one data verb.

        ``insert_shard`` is the caller's placement choice for keyless
        inserts (``obj.put`` with no oid).
        """
        op = request.get("op")
        shards = self.layout.shards
        if op in ("obj.get", "obj.remove"):
            local, shard = decode_oid(param(request, "oid", int), shards)
            return shard, {**request, "oid": local}
        if op == "obj.put":
            oid = param(request, "oid", int, None)
            if oid is None:
                return insert_shard % shards, dict(request)
            local, shard = decode_oid(oid, shards)
            return shard, {**request, "oid": local}
        if op in ("name.bind", "name.lookup", "col.create", "col.insert",
                  "col.get", "col.remove", "col.iterate"):
            return self.shard_for_name(param(request, "name", str)), dict(request)
        raise ProtocolError(f"verb {op!r} is not routable")

    def translate_response(
        self,
        op: str,
        original: Dict[str, Any],
        shard: int,
        result: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Rewrite worker-local oids in a result back to virtual ids."""
        shards = self.layout.shards
        if op in ("obj.put", "col.insert"):
            oid = result.get("oid")
            if oid is not None:
                if op == "obj.put" and original.get("oid") is not None:
                    result = {**result, "oid": original["oid"]}
                else:
                    result = {**result, "oid": encode_oid(oid, shard, shards)}
        elif op in ("obj.get", "obj.remove"):
            if "oid" in result and original.get("oid") is not None:
                result = {**result, "oid": original["oid"]}
        return result
