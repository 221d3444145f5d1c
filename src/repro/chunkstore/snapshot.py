"""Database snapshots: frozen copy-on-write views of the location map.

A snapshot freezes the map root produced by a checkpoint.  Because the
log never overwrites data in place, the frozen tree keeps describing a
consistent past state as long as the cleaner does not recycle the
segments it references — so a snapshot pins the set of segments that
existed when it was taken (the cleaner skips them).

A snapshot is the store's one pin type.  Besides the frozen map it
captures, at the same instant, what the checkpoint that anchors it
wrote: its generation and expected counter, the master record's file
name and sealed bytes, and every live segment's extent.  Bytes below an
extent are immutable while the pin lives (sealed segments never change,
the tail only grows past it), so replication ships them and the proof
service proves against them without holding the store lock.

Snapshots are how the backup store works (section 3.2.1 of the paper):

* a **full backup** streams every chunk reachable from one snapshot,
* an **incremental backup** streams only the chunks that differ between
  two snapshots, found by comparing the two Merkle trees and pruning
  every subtree whose child locators (and digests) are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from repro.chunkstore.cleaner import RetireEvent
from repro.chunkstore.format import Locator
from repro.chunkstore.locmap import LocationMap, MapNode
from repro.chunkstore.master import MASTER_FILES
from repro.chunkstore.segments import SegmentInfo
from repro.errors import ChunkNotFoundError, SnapshotError

__all__ = ["Snapshot", "SnapshotDiff"]


@dataclass
class SnapshotDiff:
    """Result of comparing two snapshots (``new`` relative to ``base``)."""

    changed: List[int] = field(default_factory=list)  # added or rewritten
    removed: List[int] = field(default_factory=list)  # deallocated since base

    def is_empty(self) -> bool:
        return not self.changed and not self.removed


class Snapshot:
    """A read-only view of the database at one checkpoint."""

    def __init__(self, store, snapshot_id: int) -> None:
        """Pin ``store`` as of the checkpoint it has just written.

        ``ChunkStore.snapshot`` holds the store lock across that
        checkpoint and this constructor, so everything captured here
        describes the same instant.
        """
        self._store = store
        self.snapshot_id = snapshot_id
        self.commit_seqno = store._seqno
        self.generation = store._generation
        self.expected_counter = store._counter_value
        self.master_name = MASTER_FILES[self.generation % 2]
        self.master_blob = store.untrusted.read(self.master_name)
        #: Copies of every live segment's table entry; ``file_bytes`` is
        #: the extent that stays immutable while the pin lives.
        self.segments: List[SegmentInfo] = [
            info for info in store.segments.snapshot_infos() if not info.is_free
        ]
        self.pinned_segments: Set[int] = {info.number for info in self.segments}
        #: Dead-space credits this pin holds back from the cleaner.
        self.deferred: List[RetireEvent] = []
        self.released = False
        self.map = LocationMap(
            node_io=store.node_io,
            fanout=store.config.map_fanout,
            hash_size=store.hash_size,
            cache=store.cache,
            namespace=f"snap-{snapshot_id}",
            depth=store.location_map.depth,
            root_locator=store.location_map.root_locator,
            frozen=True,
        )

    # -- reads ----------------------------------------------------------------

    def _check_live(self) -> None:
        if self.released:
            raise SnapshotError(f"snapshot {self.snapshot_id} was released")

    def read(self, chunk_id: int) -> bytes:
        """Return the chunk state as of this snapshot."""
        self._check_live()
        locator = self.map.lookup(chunk_id)
        if locator is None:
            raise ChunkNotFoundError(
                f"chunk {chunk_id} not present in snapshot {self.snapshot_id}"
            )
        return self._store.read_payload(locator)

    def contains(self, chunk_id: int) -> bool:
        self._check_live()
        return self.map.lookup(chunk_id) is not None

    def chunk_ids(self) -> Iterator[int]:
        """Iterate all chunk ids captured by this snapshot, in order."""
        self._check_live()
        for chunk_id, _locator in self.map.iterate():
            yield chunk_id

    def items(self) -> Iterator[Tuple[int, Locator]]:
        self._check_live()
        yield from self.map.iterate()

    def count(self) -> int:
        self._check_live()
        return self.map.count()

    # -- lifecycle --------------------------------------------------------------

    def release(self) -> None:
        """Unpin the snapshot; its segments become cleanable again."""
        store = self._store
        with store._lock:
            if self.released:
                return
            self.released = True
            store._snapshots.pop(self.snapshot_id, None)
            store.cleaner.release(self.deferred)
            store.cache.clear_namespace(f"snap-{self.snapshot_id}")

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- diffing -----------------------------------------------------------------

    def diff_from(self, base: "Snapshot") -> SnapshotDiff:
        """Return the chunk-level differences of ``self`` relative to ``base``.

        Subtrees whose locators (including Merkle digests) are identical
        in both trees are pruned without being visited, which is what
        makes frequent incremental backups cheap.
        """
        self._check_live()
        base._check_live()
        if base._store is not self._store:
            raise SnapshotError("snapshots belong to different stores")
        if base.commit_seqno > self.commit_seqno:
            raise SnapshotError(
                "diff base must be the older snapshot "
                f"(base seq {base.commit_seqno} > new seq {self.commit_seqno})"
            )
        if base.map.depth > self.map.depth:
            raise SnapshotError("map depth shrank between snapshots")
        diff = SnapshotDiff()
        new_root = self.map._require_root_loaded()
        base_root = base.map._require_root_loaded()
        # Descend the new tree until its node covers the same id range as
        # the base root; every sibling passed on the way holds ids beyond
        # the base tree's capacity, i.e. chunks added since the base.
        level = self.map.depth - 1
        node_new = new_root
        while level > base.map.depth - 1:
            if node_new is None:
                break
            for slot in sorted(node_new.children):
                if slot == 0:
                    continue
                sibling = self.map.load_child(node_new, slot)
                self._collect_ids(self.map, sibling, diff.changed)
            node_new = self.map.load_child(node_new, 0)
            level -= 1
        self._diff_nodes(base.map, node_new, base_root, level, diff)
        diff.changed.sort()
        diff.removed.sort()
        return diff

    def _diff_nodes(
        self,
        base_map: LocationMap,
        node_new: Optional[MapNode],
        node_base: Optional[MapNode],
        level: int,
        diff: SnapshotDiff,
    ) -> None:
        if node_new is None and node_base is None:
            return
        if node_base is None:
            self._collect_ids(self.map, node_new, diff.changed)
            return
        if node_new is None:
            self._collect_ids(base_map, node_base, diff.removed)
            return
        for slot in sorted(set(node_new.children) | set(node_base.children)):
            loc_new = node_new.children.get(slot)
            loc_base = node_base.children.get(slot)
            if loc_new == loc_base:
                continue  # identical subtree or identical chunk version
            if level == 0:
                chunk_id = node_new.index * self.map.fanout + slot
                if loc_new is None:
                    diff.removed.append(chunk_id)
                elif self._chunk_changed(loc_new, loc_base):
                    diff.changed.append(chunk_id)
                continue
            child_new = (
                self.map.load_child(node_new, slot) if loc_new is not None else None
            )
            child_base = (
                base_map.load_child(node_base, slot) if loc_base is not None else None
            )
            self._diff_nodes(base_map, child_new, child_base, level - 1, diff)

    @staticmethod
    def _chunk_changed(loc_new: Locator, loc_base: Optional[Locator]) -> bool:
        if loc_base is None:
            return True
        if loc_new.hash_value and loc_base.hash_value:
            # Content comparison by digest: a chunk the cleaner merely
            # relocated keeps its hash and is correctly not reported.
            return loc_new.hash_value != loc_base.hash_value
        return loc_new != loc_base

    @staticmethod
    def _collect_ids(
        source_map: LocationMap, node: Optional[MapNode], into: List[int]
    ) -> None:
        if node is None:
            return
        for chunk_id, _locator in source_map._iterate_node(node):
            into.append(chunk_id)
