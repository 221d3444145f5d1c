"""Transactions over the object store (Figure 3 of the paper).

A transaction tracks the objects it inserted, read, wrote, and removed.
Opening an object takes the corresponding transactional lock (shared for
read-only, exclusive for insert/write/remove); strict two-phase locking
releases everything at commit or abort.  Dirty objects stay pinned in
the shared cache until the end of the transaction (no-steal), and commit
maps straight onto one atomic chunk-store commit — one object per chunk,
so the write set *is* the chunk batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Type

from repro.errors import (
    ObjectNotFoundError,
    TransactionInactiveError,
    TypeCheckError,
)
from repro.errors import ChunkNotFoundError
from repro.objectstore.locks import LockMode
from repro.objectstore.persistent import Persistent
from repro.objectstore.refs import ReadonlyRef, WritableRef

__all__ = ["Transaction"]

_OBJ_NS = "obj"


class Transaction:
    """One atomic, isolated unit of object accesses."""

    def __init__(self, store, txn_id: int) -> None:
        self._store = store
        self.txn_id = txn_id
        self.active = True
        self._inserted: Dict[int, Persistent] = {}
        self._written: Dict[int, Persistent] = {}
        self._removed: Set[int] = set()
        # The strongest lock held per object: a repeat open that the held
        # mode covers skips the lock manager.
        self._locks: Dict[int, LockMode] = {}
        # In the store's writer count: from its first exclusive lock
        # until it submits its commit or ends.
        self._writer = False
        self._pinned: Set[int] = set()
        # Pickled state captured when an object is first opened writable;
        # commit skips objects whose pickle did not actually change, so a
        # conservative open_writable does not inflate the log (the write
        # volume TDB saves is the paper's headline result).
        self._clean_pickles: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Figure 3 interface
    # ------------------------------------------------------------------

    def insert(self, obj: Persistent) -> int:
        """Insert ``obj`` for persistent storage; return its object id."""
        self._check_active()
        if not isinstance(obj, Persistent):
            raise TypeCheckError(
                f"insert expects a Persistent instance, got {type(obj).__name__}"
            )
        # Fail fast on unregistered classes, before any state changes.
        self._store.registry.lookup(type(obj).class_id)
        oid = self._store.chunk_store.allocate_chunk_id()
        self._lock(oid, LockMode.EXCLUSIVE)
        with self._store.mutex:
            self._store.cache.put(_OBJ_NS, oid, obj, obj.cache_charge())
            self._pin(oid)
            self._inserted[oid] = obj
        return oid

    def open_readonly(
        self, oid: int, expected_type: Optional[Type[Persistent]] = None
    ) -> ReadonlyRef:
        """Return a read-only view of the named object (shared lock)."""
        self._check_active()
        self._lock(oid, LockMode.SHARED)
        obj = self._fetch(oid, expected_type)
        with self._store.mutex:
            self._pin(oid)  # refs protect cached objects against eviction
        return ReadonlyRef(self, oid, obj)

    def open_writable(
        self, oid: int, expected_type: Optional[Type[Persistent]] = None
    ) -> WritableRef:
        """Return a writable view of the named object (exclusive lock)."""
        self._check_active()
        self._lock(oid, LockMode.EXCLUSIVE)
        obj = self._fetch(oid, expected_type)
        with self._store.mutex:
            if oid not in self._inserted:
                if oid not in self._written:
                    self._clean_pickles[oid] = self._store.registry.pickle_object(obj)
                self._written[oid] = obj
            self._pin(oid)
        return WritableRef(self, oid, obj)

    def remove(self, oid: int) -> None:
        """Remove the named object and free its id for reuse."""
        self._check_active()
        self._lock(oid, LockMode.EXCLUSIVE)
        self._fetch(oid, None)  # existence check under the lock
        with self._store.mutex:
            if oid in self._inserted:
                # Inserted and removed in the same transaction: cancel.
                del self._inserted[oid]
                self._unpin(oid)
                self._store.cache.remove(_OBJ_NS, oid)
                self._store.chunk_store.release_chunk_id(oid)
                return
            self._written.pop(oid, None)
            self._removed.add(oid)

    def commit(self, durable: bool = True) -> None:
        """Atomically persist this transaction's effects.

        With ``durable`` false the commit uses the chunk store's
        nondurable mode: it will not survive a crash until a later
        durable commit completes.  Invalidates every Ref created in this
        transaction.
        """
        self._check_active()
        with self._store.mutex:
            writes = {}
            for oid, obj in {**self._inserted, **self._written}.items():
                if oid in self._removed:
                    continue
                payload = self._store.registry.pickle_object(obj)
                if self._clean_pickles.get(oid) == payload:
                    continue  # opened writable but never actually changed
                writes[oid] = payload
                if self._store.cache.contains(_OBJ_NS, oid):
                    self._store.cache.update_charge(_OBJ_NS, oid, obj.cache_charge())
                else:  # possible only with locking switched off
                    self._store.cache.put(_OBJ_NS, oid, obj, obj.cache_charge())
            deallocs = sorted(self._removed)
            if (writes or deallocs) and self._writer:
                # From here on this writer is a batch member, not one
                # a batch could still wait for.  No wake: it joins next.
                self._store.leave_writer(self.txn_id, wake=False)
                self._writer = False
        # The chunk-store commit runs outside the store mutex so that
        # concurrent committers can meet inside a group-commit sink and
        # share one log append + sync.  Safe under strict 2PL: every
        # object in the write set stays exclusively locked (and pinned)
        # until _finish() below, so no other transaction can observe the
        # dirty cache entries before the commit is durable.  On failure
        # the exception propagates with the transaction still active;
        # the caller aborts, which evicts the dirty entries.
        if writes or deallocs:
            self._store.submit_commit(writes, deallocs, durable=durable)
        with self._store.mutex:
            for oid in deallocs:
                self._unpin(oid)
                self._store.cache.remove(_OBJ_NS, oid)
            self._finish()

    def abort(self) -> None:
        """Undo everything: evict dirty objects, free inserted ids."""
        self._check_active()
        with self._store.mutex:
            for oid in self._written:
                # The cached instance may carry uncommitted mutations; drop
                # it so the next reader re-unpickles the committed state.
                self._unpin(oid)
                self._store.cache.remove(_OBJ_NS, oid)
            for oid in self._inserted:
                self._unpin(oid)
                self._store.cache.remove(_OBJ_NS, oid)
                self._store.chunk_store.release_chunk_id(oid)
            self._finish()

    # ------------------------------------------------------------------
    # Root object and name registry (catalog access)
    # ------------------------------------------------------------------

    def get_root(self) -> Optional[int]:
        """Return the registered root object id, if any."""
        ref = self.open_readonly(self._store.catalog_oid)
        return ref.deref().root_oid

    def set_root(self, oid: Optional[int]) -> None:
        """Register ``oid`` as the navigation root."""
        ref = self.open_writable(self._store.catalog_oid)
        ref.deref().root_oid = oid

    def lookup_name(self, name: str) -> Optional[int]:
        """Resolve a registered name to an object id."""
        ref = self.open_readonly(self._store.catalog_oid)
        return ref.deref().names.get(name)

    def bind_name(self, name: str, oid: int) -> None:
        """Bind ``name`` to ``oid`` in the persistent name registry."""
        ref = self.open_writable(self._store.catalog_oid)
        ref.deref().names[name] = oid

    def unbind_name(self, name: str) -> None:
        """Remove a name binding; missing names raise ``KeyError``."""
        ref = self.open_writable(self._store.catalog_oid)
        catalog = ref.deref()
        if name not in catalog.names:
            raise KeyError(name)
        del catalog.names[name]

    # ------------------------------------------------------------------
    # Context-manager convenience: commit on success, abort on exception
    # ------------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionInactiveError(
                "transaction already committed or aborted"
            )

    def _lock(self, oid: int, mode: LockMode) -> None:
        held = self._locks.get(oid)
        if held is LockMode.EXCLUSIVE or held is mode:
            return  # shared is covered by either mode, exclusive by itself
        self._store.locks.acquire(self.txn_id, oid, mode)
        self._locks[oid] = mode
        if mode is LockMode.EXCLUSIVE and not self._writer:
            self._store.enter_writer(self.txn_id)
            self._writer = True

    def _fetch(self, oid: int, expected_type: Optional[Type[Persistent]]):
        with self._store.mutex:
            if oid in self._removed:
                raise ObjectNotFoundError(
                    f"object {oid} was removed in this transaction"
                )
            obj = self._store.cache.get(_OBJ_NS, oid)
            if obj is None:
                try:
                    payload = self._store.chunk_store.read(oid)
                except ChunkNotFoundError as exc:
                    raise ObjectNotFoundError(f"no object stored under id {oid}") from exc
                obj = self._store.registry.unpickle_object(payload)
                self._store.cache.put(_OBJ_NS, oid, obj, obj.cache_charge())
            if expected_type is not None and not isinstance(obj, expected_type):
                raise TypeCheckError(
                    f"object {oid} is {type(obj).__name__}, expected "
                    f"{expected_type.__name__}"
                )
            return obj

    def _touch(self, oid: int) -> None:
        """Refresh LRU position on ref dereference (paper section 4.2.2)."""
        if self.active:
            self._store.cache.get(_OBJ_NS, oid)

    def _pin(self, oid: int) -> None:
        if oid not in self._pinned:
            self._store.cache.pin(_OBJ_NS, oid)
            self._pinned.add(oid)

    def _unpin(self, oid: int) -> None:
        if oid in self._pinned:
            # With locking switched off, another transaction may have
            # removed the entry (and its pins) out from under us; that is
            # the documented risk of the no-locking mode.
            if self._store.cache.pin_count(_OBJ_NS, oid) > 0:
                self._store.cache.unpin(_OBJ_NS, oid)
            self._pinned.discard(oid)

    def _finish(self) -> None:
        for oid in list(self._pinned):
            self._unpin(oid)
        self.active = False
        self._store.locks.release_all(self.txn_id)
        if self._writer:
            self._store.leave_writer(self.txn_id)
            self._writer = False
