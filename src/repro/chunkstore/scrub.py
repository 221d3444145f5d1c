"""Merkle scrub: full-tree verification with damage localization.

The location map *is* the embedded Merkle tree (section 3 of the paper),
so one walk from the root locator can verify every reachable map node
and chunk payload against its authenticated digest — without
materializing the database above the chunk layer.  Unlike the normal
read path, which raises :class:`~repro.errors.TamperDetectedError` at
the first bad byte, the scrubber records each failure in a structured
:class:`DamageReport` and keeps walking, so the repair engine learns
*exactly which* chunks and map nodes are damaged and which segments
carry them.

A node that fails to load takes its whole subtree with it; the report
records the chunk-id range the lost node covered instead of guessing at
its children.  Because damage is recorded at the highest unreachable
node, no reported node is a descendant of another reported node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chunkstore.format import Locator
from repro.chunkstore.locmap import MapNode
from repro.errors import TDBError

__all__ = ["DamagedChunk", "DamagedNode", "DamageReport", "scrub_store"]


@dataclass(frozen=True)
class DamagedChunk:
    """One chunk payload that failed hash validation or could not be read."""

    chunk_id: int
    segment: int
    offset: int
    length: int
    error: str


@dataclass(frozen=True)
class DamagedNode:
    """One unreachable map node and the chunk-id range it covered.

    ``id_lo``/``id_hi`` bound the half-open range ``[id_lo, id_hi)`` of
    chunk ids whose mappings were lost with this node — every id in the
    range is *suspect*; the backup chain decides which actually existed.
    """

    level: int
    index: int
    id_lo: int
    id_hi: int
    segment: int
    offset: int
    length: int
    error: str


@dataclass
class DamageReport:
    """Structured result of one scrub pass.

    ``verified_chunks``/``verified_nodes`` count payloads re-hashed from
    media this pass (dirty map nodes that exist only in memory are
    walked but not counted).
    """

    damaged_chunks: List[DamagedChunk] = field(default_factory=list)
    damaged_nodes: List[DamagedNode] = field(default_factory=list)
    verified_chunks: int = 0
    verified_nodes: int = 0
    root_lost: bool = False

    @property
    def clean(self) -> bool:
        return not (self.damaged_chunks or self.damaged_nodes or self.root_lost)

    def damaged_segments(self) -> List[int]:
        """Segment numbers carrying at least one damaged payload, sorted."""
        segments = {entry.segment for entry in self.damaged_chunks}
        segments.update(entry.segment for entry in self.damaged_nodes)
        return sorted(segments)

    def suspect_id_ranges(self) -> List[Tuple[int, int]]:
        """Half-open chunk-id ranges lost with damaged map nodes."""
        return sorted((node.id_lo, node.id_hi) for node in self.damaged_nodes)

    def summary(self) -> str:
        if self.clean:
            return (
                f"clean: {self.verified_chunks} chunks and "
                f"{self.verified_nodes} map nodes verified"
            )
        parts = [
            f"{len(self.damaged_chunks)} damaged chunks",
            f"{len(self.damaged_nodes)} damaged map nodes",
            f"{self.verified_chunks} chunks verified",
        ]
        if self.root_lost:
            parts.insert(0, "map root lost")
        return "; ".join(parts)


def _id_span(fanout: int, level: int, index: int) -> Tuple[int, int]:
    """Chunk-id range ``[lo, hi)`` covered by map node ``(level, index)``."""
    span = fanout ** (level + 1)
    return index * span, (index + 1) * span


def scrub_store(
    store, collect: bool = False
) -> Tuple[DamageReport, Dict[int, bytes]]:
    """Walk the store's Merkle tree verifying every node and payload.

    ``store`` is a :class:`~repro.chunkstore.store.ChunkStore` (the caller
    holds its lock).  Map nodes are re-loaded *from media* via the store's
    node I/O — the cache is bypassed so the scrub verifies the bytes that
    would survive a restart, except for dirty nodes (salvage replay
    state), which exist only in memory and are walked as-is.

    With ``collect=True`` the plaintext of every verified chunk is
    returned too (the salvage-export path); otherwise the payload dict is
    empty and payload bytes are dropped after verification.

    Nothing is taken on trust from an earlier pass: every clean node and
    every payload is re-read and re-hashed from media, as a read would.
    """
    lmap = store.location_map
    fanout = lmap.fanout
    report = DamageReport()
    payloads: Dict[int, bytes] = {}

    def record_damaged_chunk(chunk_id: int, locator: Locator, error: str):
        report.damaged_chunks.append(
            DamagedChunk(
                chunk_id=chunk_id,
                segment=locator.segment,
                offset=locator.offset,
                length=locator.length,
                error=error,
            )
        )

    def cached_clean_node(level: int, index: int) -> Optional[MapNode]:
        """In-memory copy of node ``(level, index)`` if one exists."""
        if lmap._root is not None and (level, index) == (lmap.depth - 1, 0):
            return lmap._root
        return lmap.cache.peek(lmap.namespace, (level, index))

    def record_damaged_node(level: int, index: int, locator: Locator, exc: TDBError):
        lo, hi = _id_span(fanout, level, index)
        report.damaged_nodes.append(
            DamagedNode(
                level=level,
                index=index,
                id_lo=lo,
                id_hi=hi,
                segment=locator.segment,
                offset=locator.offset,
                length=locator.length,
                error=f"{type(exc).__name__}: {exc}",
            )
        )

    def load_fresh(locator: Locator, level: int, index: int) -> Optional[MapNode]:
        cached = cached_clean_node(level, index)
        if cached is not None and cached.dirty:
            # Newer than its media copy (salvage replay applied commits
            # to it); the in-memory node is the truth being scrubbed.
            return cached
        try:
            node = store.node_io.load_node(locator, level, index)
        except TDBError as exc:
            record_damaged_node(level, index, locator, exc)
            return None
        report.verified_nodes += 1
        return node

    def visit(node: MapNode) -> None:
        if node.level == 0:
            base = node.index * fanout
            for slot in sorted(node.children):
                chunk_id = base + slot
                locator = node.children[slot]
                try:
                    data = store.read_payload(locator)
                except TDBError as exc:
                    record_damaged_chunk(
                        chunk_id, locator, f"{type(exc).__name__}: {exc}"
                    )
                else:
                    report.verified_chunks += 1
                    if collect:
                        payloads[chunk_id] = data
            return
        for slot in sorted(node.children):
            child = load_fresh(
                node.children[slot], node.level - 1, node.index * fanout + slot
            )
            if child is not None:
                visit(child)
        if node.dirty:
            # Children created since the last checkpoint live only in
            # the cache; the parent has no locator for them yet.
            for slot in range(fanout):
                if slot in node.children:
                    continue
                key = (node.level - 1, node.index * fanout + slot)
                cached = lmap.cache.peek(lmap.namespace, key)
                if cached is not None:
                    visit(cached)

    in_memory_root = lmap._root
    root_locator = lmap.root_locator
    if in_memory_root is not None and in_memory_root.dirty:
        visit(in_memory_root)
    elif root_locator is not None:
        root = load_fresh(root_locator, lmap.depth - 1, 0)
        if root is None:
            report.root_lost = True
            return report, payloads
        visit(root)
    elif in_memory_root is not None:
        visit(in_memory_root)
    # else: empty store, trivially clean
    return report, payloads
