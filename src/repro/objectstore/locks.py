"""Transactional locking: shared/exclusive object locks with timeouts.

Strict two-phase locking (paper section 4.2.3): a transaction acquires a
shared lock to read an object and an exclusive lock to insert, write, or
remove it, and holds every lock until it ends.  There is no deadlock
*prevention* — a blocked acquire simply times out and raises
:class:`LockTimeoutError`, breaking the potential deadlock; the
application retries the operation or aborts the transaction.

The lock table has its own mutex, released while waiting (the paper's
"state mutex is released when a thread waits on a transactional lock").
A disabled manager (``enabled=False``) grants everything immediately for
single-threaded embeddings that want zero locking overhead.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from typing import Dict, Set

from repro.errors import LockTimeoutError

__all__ = ["LockMode", "LockManager"]


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class _ObjectLock:
    """State of one object's lock: holders and their modes."""

    __slots__ = ("sharers", "owner")

    def __init__(self) -> None:
        self.sharers: Set[int] = set()
        self.owner: int = -1  # exclusive holder, -1 when none

    def is_free_for(self, txn_id: int, mode: LockMode) -> bool:
        if self.owner not in (-1, txn_id):
            return False
        if mode is LockMode.SHARED:
            return True
        # Exclusive: no other sharers may remain.
        others = self.sharers - {txn_id}
        return not others


class LockManager:
    """Shared/exclusive lock table keyed by object id."""

    def __init__(self, enabled: bool = True, timeout: float = 2.0) -> None:
        if timeout <= 0:
            raise ValueError("lock timeout must be positive")
        self.enabled = enabled
        self.timeout = timeout
        self._mutex = threading.Lock()
        self._changed = threading.Condition(self._mutex)
        self._locks: Dict[int, _ObjectLock] = {}
        self._held: Dict[int, Set[int]] = defaultdict(set)  # txn -> oids

    def acquire(self, txn_id: int, oid: int, mode: LockMode) -> None:
        """Block until the lock is granted or the timeout expires."""
        if not self.enabled:
            return
        deadline = time.monotonic() + self.timeout
        with self._changed:
            lock = self._locks.setdefault(oid, _ObjectLock())
            while not lock.is_free_for(txn_id, mode):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._changed.wait(remaining):
                    raise LockTimeoutError(
                        f"transaction {txn_id} timed out waiting for a "
                        f"{mode.value} lock on object {oid} "
                        "(possible deadlock; retry or abort)"
                    )
                # A releasing transaction may have dropped the table entry;
                # waiters must re-fetch it or they would mutate a detached
                # lock object and grant ownership invisibly.
                lock = self._locks.setdefault(oid, _ObjectLock())
            if mode is LockMode.SHARED:
                lock.sharers.add(txn_id)
            else:
                lock.owner = txn_id
                lock.sharers.discard(txn_id)  # upgrade folds the share away
            self._held[txn_id].add(oid)

    def release_all(self, txn_id: int) -> None:
        """Drop every lock a transaction holds (strict 2PL release point)."""
        if not self.enabled:
            return
        with self._changed:
            for oid in self._held.pop(txn_id, set()):
                lock = self._locks.get(oid)
                if lock is None:
                    continue
                lock.sharers.discard(txn_id)
                if lock.owner == txn_id:
                    lock.owner = -1
                if not lock.sharers and lock.owner == -1:
                    del self._locks[oid]
            self._changed.notify_all()

    # -- introspection (tests, debugging) ---------------------------------------

    def holds(self, txn_id: int, oid: int, mode: LockMode) -> bool:
        if not self.enabled:
            return True
        with self._mutex:
            lock = self._locks.get(oid)
            if lock is None:
                return False
            if mode is LockMode.EXCLUSIVE:
                return lock.owner == txn_id
            return txn_id in lock.sharers or lock.owner == txn_id
