"""The hierarchical location map with the embedded Merkle hash tree.

The map is a radix tree over chunk ids with configurable fanout ``F``:
leaf node ``(0, i)`` holds locators for chunk ids ``[i*F, (i+1)*F)``, and
internal node ``(L, i)`` holds locators of its child nodes.  Because each
locator carries the digest of the bytes it points at, the map *is* the
Merkle tree: walking from the root to a leaf validates a chunk, and the
root locator's digest authenticates the entire database (section 3 of the
paper — "the hash tree can be embedded in the location map ... no extra
performance overhead for maintaining the location map").

Map nodes are themselves stored in the log as chunks; dirty nodes are kept
pinned in the shared cache and written out at checkpoints, not on every
commit.  The tree grows a level when chunk ids outgrow its capacity.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.cache import SharedLruCache
from repro.chunkstore.format import Locator
from repro.errors import ChunkStoreError, TamperDetectedError

__all__ = ["MapNode", "NodeIO", "LocationMap"]

_NODE_MAGIC = b"MN"  # rejects zero-filled or foreign buffers in insecure mode
_NODE_HEAD = struct.Struct(">2sBQH")
_ENTRIES: Dict[int, struct.Struct] = {}
_new_locator = tuple.__new__


def _entry_struct(hash_size: int) -> struct.Struct:
    """One map-node entry: slot, then the locator's fields and digest."""
    entry = _ENTRIES.get(hash_size)
    if entry is None:
        entry = _ENTRIES[hash_size] = struct.Struct(f">HIQI{hash_size}s")
    return entry


class MapNode:
    """One node of the location map.

    ``children`` maps slot number to a :class:`Locator`: for a leaf the
    locator points at a chunk payload; for an internal node it points at
    the serialized child map node.
    """

    __slots__ = ("level", "index", "children", "disk_locator", "dirty")

    def __init__(self, level: int, index: int) -> None:
        self.level = level
        self.index = index
        self.children: Dict[int, Locator] = {}
        self.disk_locator: Optional[Locator] = None
        self.dirty = False

    def serialize(self, hash_size: int) -> bytes:
        children = self.children
        pack = _entry_struct(hash_size).pack
        parts = [_NODE_HEAD.pack(_NODE_MAGIC, self.level, self.index, len(children))]
        for slot, (segment, offset, length, digest) in sorted(children.items()):
            # ``struct`` would pad or cut a digest of the wrong size.
            if len(digest) != hash_size:
                raise ChunkStoreError(
                    f"locator hash is {len(digest)} bytes, expected {hash_size}"
                )
            parts.append(pack(slot, segment, offset, length, digest))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes, hash_size: int) -> "MapNode":
        try:
            magic, level, index, count = _NODE_HEAD.unpack_from(data, 0)
        except struct.error as exc:
            raise ChunkStoreError(f"malformed map node: {exc}") from exc
        if magic != _NODE_MAGIC:
            raise ChunkStoreError("bad map node magic (corrupt or foreign data)")
        entry = _entry_struct(hash_size)
        body = memoryview(data)[_NODE_HEAD.size:]
        if len(body) != count * entry.size:
            raise ChunkStoreError(
                f"malformed map node: {len(body)} body bytes for {count}"
                f" entries of {entry.size}"
            )
        node = cls(level, index)
        # One C-level unpack for the whole body; each row becomes a
        # Locator without running a Python constructor.
        node.children = {
            row[0]: _new_locator(Locator, row[1:]) for row in entry.iter_unpack(body)
        }
        return node

    def charge_estimate(self) -> int:
        """Approximate in-memory size for cache accounting."""
        return 64 + 48 * len(self.children)


class NodeIO:
    """How the map loads and stores its nodes (implemented by the store)."""

    def load_node(self, locator: Locator, level: int, index: int) -> MapNode:
        raise NotImplementedError

    def append_node(self, level: int, index: int, plaintext: bytes) -> Locator:
        raise NotImplementedError


class LocationMap:
    """Mutable (or frozen, for snapshots) view of the location map."""

    def __init__(
        self,
        node_io: NodeIO,
        fanout: int,
        hash_size: int,
        cache: SharedLruCache,
        namespace: str = "map",
        depth: int = 1,
        root_locator: Optional[Locator] = None,
        frozen: bool = False,
    ) -> None:
        if depth < 1:
            raise ChunkStoreError("map depth must be at least 1")
        self.node_io = node_io
        self.fanout = fanout
        self.hash_size = hash_size
        self.cache = cache
        self.namespace = namespace
        self.depth = depth
        self.frozen = frozen
        self._root: Optional[MapNode] = None
        self._root_locator = root_locator
        self._dirty: Set[Tuple[int, int]] = set()

    # -- capacity -----------------------------------------------------------------

    def capacity(self) -> int:
        return self.fanout ** self.depth

    def _grow_to_cover(self, chunk_id: int) -> None:
        while chunk_id >= self.capacity():
            old_root = self._require_root_loaded()
            new_root = MapNode(self.depth, 0)
            if old_root is not None:
                if old_root.disk_locator is not None:
                    new_root.children[0] = old_root.disk_locator
                # Move the old root into the cache under its stable key.
                self._cache_put(old_root)
            self.depth += 1
            self._root = new_root
            self._root_locator = None
            self._mark_dirty(new_root)

    # -- node plumbing --------------------------------------------------------------

    def _cache_key(self, level: int, index: int) -> Tuple[int, int]:
        return (level, index)

    def _cache_put(self, node: MapNode) -> None:
        key = self._cache_key(node.level, node.index)
        self.cache.put(self.namespace, key, node, node.charge_estimate())
        if node.dirty:
            self.cache.pin(self.namespace, key)

    def _require_root_loaded(self) -> Optional[MapNode]:
        """Return the root node, loading it from disk if necessary."""
        if self._root is not None:
            return self._root
        if self._root_locator is None:
            return None
        self._root = self.node_io.load_node(
            self._root_locator, self.depth - 1, 0
        )
        self._root.disk_locator = self._root_locator
        return self._root

    def load_child(self, parent: MapNode, slot: int) -> Optional[MapNode]:
        """Fetch the child of ``parent`` at ``slot`` (cache, then disk)."""
        if parent.level == 0:
            raise ChunkStoreError("leaf nodes have no child map nodes")
        child_level = parent.level - 1
        child_index = parent.index * self.fanout + slot
        key = self._cache_key(child_level, child_index)
        cached = self.cache.get(self.namespace, key)
        if cached is not None:
            return cached
        locator = parent.children.get(slot)
        if locator is None:
            return None
        node = self.node_io.load_node(locator, child_level, child_index)
        node.disk_locator = locator
        self._cache_put(node)
        return node

    def _child_for_write(self, parent: MapNode, slot: int) -> MapNode:
        node = self.load_child(parent, slot)
        if node is None:
            node = MapNode(parent.level - 1, parent.index * self.fanout + slot)
            self._cache_put(node)
            self._mark_dirty(node)
            # The parent will need a locator for this child at the next
            # checkpoint, and iteration discovers cache-only children
            # through dirty parents, so dirty the parent now.
            self._mark_dirty(parent)
        return node

    def _mark_dirty(self, node: MapNode) -> None:
        if self.frozen:
            raise ChunkStoreError("frozen location map cannot be modified")
        if node.dirty:
            return
        node.dirty = True
        self._dirty.add((node.level, node.index))
        key = self._cache_key(node.level, node.index)
        if self.cache.contains(self.namespace, key):
            self.cache.pin(self.namespace, key)

    def _slot_at(self, chunk_id: int, level: int) -> int:
        return (chunk_id // (self.fanout ** level)) % self.fanout

    # -- queries ----------------------------------------------------------------------

    def lookup(self, chunk_id: int) -> Optional[Locator]:
        """Return the locator for ``chunk_id`` or ``None``."""
        if chunk_id < 0:
            raise ChunkStoreError("chunk ids are non-negative")
        if chunk_id >= self.capacity():
            return None
        node = self._require_root_loaded()
        if node is None:
            return None
        for level in range(self.depth - 1, 0, -1):
            node = self.load_child(node, self._slot_at(chunk_id, level))
            if node is None:
                return None
        return node.children.get(chunk_id % self.fanout)

    def __contains__(self, chunk_id: int) -> bool:
        return self.lookup(chunk_id) is not None

    def iterate(self) -> Iterator[Tuple[int, Locator]]:
        """Yield ``(chunk_id, locator)`` for every mapped chunk, in order."""
        root = self._require_root_loaded()
        if root is None:
            return
        yield from self._iterate_node(root)

    def _iterate_node(self, node: MapNode) -> Iterator[Tuple[int, Locator]]:
        if node.level == 0:
            base = node.index * self.fanout
            for slot in sorted(node.children):
                yield base + slot, node.children[slot]
            return
        for slot in sorted(node.children):
            child = self.load_child(node, slot)
            if child is None:
                raise TamperDetectedError(
                    f"map node ({node.level - 1},"
                    f" {node.index * self.fanout + slot}) is unreachable"
                )
            yield from self._iterate_node(child)
        for child in self.unflushed_children(node):
            yield from self._iterate_node(child)

    def unflushed_children(self, node: MapNode) -> Iterator[MapNode]:
        """Children of internal ``node`` created since the last
        checkpoint: only a dirty node has them, and only in the cache."""
        if not node.dirty:
            return
        for slot in range(self.fanout):
            if slot not in node.children:
                key = self._cache_key(node.level - 1, node.index * self.fanout + slot)
                cached = self.cache.peek(self.namespace, key)
                if cached is not None:
                    yield cached

    def count(self) -> int:
        """Number of mapped chunks (walks the tree)."""
        return sum(1 for _ in self.iterate())

    # -- updates -----------------------------------------------------------------------

    def set(self, chunk_id: int, locator: Locator) -> Optional[Locator]:
        """Map ``chunk_id`` to ``locator``; return the previous locator."""
        if self.frozen:
            raise ChunkStoreError("frozen location map cannot be modified")
        if chunk_id < 0:
            raise ChunkStoreError("chunk ids are non-negative")
        self._grow_to_cover(chunk_id)
        node = self._require_root_loaded()
        if node is None:
            node = MapNode(self.depth - 1, 0)
            self._root = node
            self._mark_dirty(node)
        for level in range(self.depth - 1, 0, -1):
            node = self._child_for_write(node, self._slot_at(chunk_id, level))
        slot = chunk_id % self.fanout
        old = node.children.get(slot)
        node.children[slot] = locator
        self._mark_dirty(node)
        return old

    def remove(self, chunk_id: int) -> Optional[Locator]:
        """Unmap ``chunk_id``; return the previous locator or ``None``."""
        if self.frozen:
            raise ChunkStoreError("frozen location map cannot be modified")
        if chunk_id < 0 or chunk_id >= self.capacity():
            return None
        node = self._require_root_loaded()
        if node is None:
            return None
        for level in range(self.depth - 1, 0, -1):
            node = self.load_child(node, self._slot_at(chunk_id, level))
            if node is None:
                return None
        slot = chunk_id % self.fanout
        old = node.children.pop(slot, None)
        if old is not None:
            self._mark_dirty(node)
        return old

    # -- checkpointing --------------------------------------------------------------------

    def has_dirty_nodes(self) -> bool:
        return bool(self._dirty)

    def checkpoint(
        self, append_node: Callable[[int, int, bytes], Locator]
    ) -> Tuple[Optional[Locator], List[Locator]]:
        """Write all dirty nodes bottom-up; return (root locator, retired).

        ``append_node(level, index, plaintext)`` must append one MAP_NODE
        record and return the locator (with digest) of the stored payload.
        The returned retired list holds the previous on-disk locators of
        the rewritten nodes; their bytes are now obsolete.
        """
        retired: List[Locator] = []
        for level in range(self.depth):
            keys = sorted(key for key in self._dirty if key[0] == level)
            for _, index in keys:
                node = self._node_for_checkpoint(level, index)
                payload = node.serialize(self.hash_size)
                locator = append_node(level, index, payload)
                if node.disk_locator is not None:
                    retired.append(node.disk_locator)
                node.disk_locator = locator
                node.dirty = False
                self._dirty.discard((level, index))
                key = self._cache_key(level, index)
                if self.cache.contains(self.namespace, key):
                    self.cache.unpin(self.namespace, key)
                if level < self.depth - 1:
                    parent = self._parent_for_checkpoint(node)
                    parent.children[index % self.fanout] = locator
                    self._mark_dirty(parent)
        if self._dirty:
            raise ChunkStoreError(f"dirty nodes left after checkpoint: {self._dirty}")
        # An unloaded root (nothing dirtied since open) keeps its existing
        # locator — overwriting it with None would orphan the whole tree.
        if self._root is not None:
            self._root_locator = self._root.disk_locator
        return self._root_locator, retired

    def _node_for_checkpoint(self, level: int, index: int) -> MapNode:
        if self._root is not None and (level, index) == (self.depth - 1, 0):
            return self._root
        node = self.cache.peek(self.namespace, self._cache_key(level, index))
        if node is None:
            raise ChunkStoreError(
                f"dirty map node ({level}, {index}) fell out of the cache"
            )
        return node

    def _parent_for_checkpoint(self, node: MapNode) -> MapNode:
        parent_level = node.level + 1
        parent_index = node.index // self.fanout
        if (parent_level, parent_index) == (self.depth - 1, 0):
            root = self._require_root_loaded()
            if root is None:
                root = MapNode(self.depth - 1, 0)
                self._root = root
                self._mark_dirty(root)
            return root
        key = self._cache_key(parent_level, parent_index)
        parent = self.cache.get(self.namespace, key)
        if parent is None:
            # The parent exists on disk but was evicted: reload it through
            # the normal walk from the root.
            parent = self._walk_to(parent_level, parent_index)
        if parent is None:
            parent = MapNode(parent_level, parent_index)
            self._cache_put(parent)
            self._mark_dirty(parent)
        return parent

    def _walk_to(self, level: int, index: int) -> Optional[MapNode]:
        """Walk from the root to node ``(level, index)``; None if absent."""
        node = self._require_root_loaded()
        if node is None:
            return None
        for current_level in range(self.depth - 1, level, -1):
            divisor = self.fanout ** (current_level - level - 1)
            slot = (index // divisor) % self.fanout if divisor > 1 else index % self.fanout
            node = self.load_child(node, slot)
            if node is None:
                return None
        return node

    @property
    def root_locator(self) -> Optional[Locator]:
        return self._root_locator

    # -- cleaner support ---------------------------------------------------------

    def relocate_node_if_current(
        self, level: int, index: int, segment: int, offset: int, length: int
    ) -> bool:
        """Dirty node ``(level, index)`` if it currently lives at the given spot.

        Used by the cleaner: a dirty node is rewritten (elsewhere) by the
        next checkpoint, which retires the old on-disk version inside the
        victim segment.  Returns whether the position matched.
        """
        if level >= self.depth:
            return False
        node = self._walk_to(level, index)
        if node is None or node.disk_locator is None:
            return False
        locator = node.disk_locator
        if (locator.segment, locator.offset, locator.length) != (
            segment,
            offset,
            length,
        ):
            return False
        self._mark_dirty(node)
        return True

    # -- repair support ----------------------------------------------------------

    def prune_child(self, level: int, index: int) -> bool:
        """Detach node ``(level, index)`` from its parent (repair entry point).

        A damaged node's mapping entries are unrecoverable from media; the
        repair engine detaches the node so the chunk ids it covered read
        as unmapped, then restores them from the backup chain.
        Returns whether a parent entry was actually removed.  The root
        cannot be pruned — losing it means a full restore.
        """
        if self.frozen:
            raise ChunkStoreError("frozen location map cannot be modified")
        if level >= self.depth - 1:
            raise ChunkStoreError("cannot prune the map root; restore instead")
        parent = self._walk_to(level + 1, index // self.fanout)
        if parent is None:
            return False
        removed = parent.children.pop(index % self.fanout, None) is not None
        # Drop any stale cached copy so later writes rebuild the subtree
        # from scratch instead of resurrecting the damaged node.
        self.cache.remove(self.namespace, self._cache_key(level, index))
        if removed:
            self._mark_dirty(parent)
        return removed
