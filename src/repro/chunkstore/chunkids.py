"""Chunk-id allocation.

Chunk ids are small dense integers: the location map is a radix tree
over them, so reusing a deallocated id keeps the tree compact.  An id is
*pending* from allocation until a commit writes or deallocates it; a
transaction that aborts hands its pending ids back for immediate reuse
(paper section 4.2.3).  ``next_id`` — one past the highest id ever
handed out — is the only part that is durable: every commit record and
master record carries it, and recovery restores it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from repro.errors import ChunkStoreError

__all__ = ["ChunkIds"]


class ChunkIds:
    """The store's id allocator (the caller holds the store lock)."""

    def __init__(self) -> None:
        self.next_id = 0
        self._free: List[int] = []
        self._pending: Set[int] = set()

    def allocate(self) -> int:
        """An unallocated id; deallocated ids are reused first."""
        if self._free:
            chunk_id = self._free.pop()
        else:
            chunk_id = self.next_id
            self.next_id += 1
        self._pending.add(chunk_id)
        return chunk_id

    def release(self, chunk_id: int) -> None:
        """Return an allocated-but-never-written id to the free pool."""
        if chunk_id in self._pending:
            self._pending.discard(chunk_id)
            self._free.append(chunk_id)

    def adopt(self, chunk_id: int) -> None:
        """Mark a specific id as allocated (backup restore)."""
        if chunk_id < 0:
            raise ChunkStoreError("chunk ids are non-negative")
        self._pending.add(chunk_id)
        self.next_id = max(self.next_id, chunk_id + 1)

    def check_commit(
        self,
        writes: Iterable[int],
        deallocs: List[int],
        lookup: Callable[[int], Optional[object]],
    ) -> None:
        """Refuse a commit touching an id that is neither pending nor
        written (``lookup`` is the location map's), or that writes and
        deallocates the same id."""
        seen = set()
        for chunk_id in writes:
            seen.add(chunk_id)
            if chunk_id not in self._pending and lookup(chunk_id) is None:
                raise ChunkStoreError(f"write to unallocated chunk id {chunk_id}")
        for chunk_id in deallocs:
            if chunk_id in seen:
                raise ChunkStoreError(
                    f"chunk {chunk_id} both written and deallocated in one commit"
                )
            seen.add(chunk_id)
            if chunk_id not in self._pending and lookup(chunk_id) is None:
                raise ChunkStoreError(f"deallocate of unallocated chunk id {chunk_id}")

    def committed(self, writes: Iterable[int], deallocs: List[int]) -> None:
        """A commit landed: its ids are no longer pending, and the ids it
        deallocated are free for reuse."""
        for chunk_id in writes:
            self._pending.discard(chunk_id)
        for chunk_id in deallocs:
            self._pending.discard(chunk_id)
            self._free.append(chunk_id)
