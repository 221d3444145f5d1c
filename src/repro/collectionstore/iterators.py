"""Insensitive iterators with deferred index maintenance.

The paper's four constraints (section 5.2.2) and how they appear here:

1. *Writable references to collection objects only come from iterators* —
   :class:`~repro.collectionstore.ctransaction.CTransaction` exposes no
   ``open_writable``; :meth:`CollectionIterator.write` is the only door.
2. *No other iterator on the same collection may be open when an iterator
   dereferences writable* — checked at :meth:`write` / :meth:`delete`.
3. *Iterators are unidirectional* — only :meth:`next`.
4. *Index maintenance is deferred until iterator close* — :meth:`close`
   replays the updates using the pre-update key snapshots captured when
   each writable reference was handed out.

Insensitivity itself comes from capturing the result set at query
time: updates performed through the iterator cannot add, remove, or move
rows under it, which rules out the Halloween syndrome by construction.

Uniqueness violations discovered at close remove the violating objects
from the collection and raise :class:`IndexIntegrityError` carrying their
ids (section 5.2.3).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import IndexIntegrityError, IteratorStateError
from repro.objectstore.refs import ReadonlyRef, WritableRef

__all__ = ["CollectionIterator"]


class CollectionIterator:
    """Unidirectional cursor over a captured query result."""

    def __init__(self, ctransaction, handle, oids: List[int]) -> None:
        self.ct = ctransaction
        self.handle = handle
        self._oids = list(oids)
        self._position = 0
        self._written: Dict[int, Dict[str, object]] = {}
        self._deleted: Dict[int, Dict[str, object]] = {}
        self.closed = False

    # -- cursor movement (constraint 3: forward only) ----------------------------

    def end(self) -> bool:
        """True once the cursor has moved past the last object."""
        return self._position >= len(self._oids)

    def next(self) -> None:
        """Advance to the next object."""
        self._check_open()
        if self.end():
            raise IteratorStateError("iterator advanced past its end")
        self._position += 1

    def __len__(self) -> int:
        return len(self._oids)

    # -- dereferencing ------------------------------------------------------------

    def _current_oid(self) -> int:
        self._check_open()
        if self.end():
            raise IteratorStateError("iterator dereferenced past its end")
        oid = self._oids[self._position]
        if oid in self._deleted:
            raise IteratorStateError(
                f"current object {oid} was deleted through this iterator"
            )
        return oid

    def read(self) -> ReadonlyRef:
        """Read-only view of the current object."""
        return self.ct._txn.open_readonly(self._current_oid())

    def write(self) -> WritableRef:
        """Writable view of the current object (constraint 2 applies).

        The first writable dereference of each object records its
        pre-update key snapshot; close() compares it against the keys
        recomputed after the application's updates.
        """
        oid = self._current_oid()
        self.handle._require_writable()
        self.ct._assert_sole_iterator(self)
        ref = self.ct._txn.open_writable(oid)
        if oid not in self._written:
            self._written[oid] = self.handle._key_snapshot(ref.deref())
        return ref

    def delete(self) -> None:
        """Delete the current object (applied at close)."""
        oid = self._current_oid()
        self.handle._require_writable()
        self.ct._assert_sole_iterator(self)
        ref = self.ct._txn.open_writable(oid)
        if oid in self._written:
            # Deleting an object updated through this iterator: the index
            # entries to purge are the pre-update ones.
            self._deleted[oid] = self._written.pop(oid)
        else:
            self._deleted[oid] = self.handle._key_snapshot(ref.deref())

    # -- closing --------------------------------------------------------------------

    def close(self) -> None:
        """Apply deferred updates; raise on deferred unique violations.

        Idempotent.  On :class:`IndexIntegrityError` the violating objects
        have been removed from the collection (their ids ride on the
        exception) while every other deferred update has been applied.
        """
        if self.closed:
            return
        self.closed = True
        self.ct._iterator_closed(self)
        if not self._written and not self._deleted:
            return
        violators = self.handle._apply_deferred(self._written, self._deleted)
        if violators:
            raise IndexIntegrityError(
                f"{len(violators)} object(s) violated unique indexes at "
                f"iterator close and were removed from collection "
                f"{self.handle.name!r}",
                removed_object_ids=violators,
            )

    def abandon(self) -> None:
        """Discard deferred updates without applying them (abort path)."""
        self.closed = True
        self.ct._iterator_closed(self)
        self._written.clear()
        self._deleted.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise IteratorStateError("iterator is closed")

    # -- context manager ---------------------------------------------------------------

    def __enter__(self) -> "CollectionIterator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abandon()
