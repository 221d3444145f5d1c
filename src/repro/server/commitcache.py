"""Idempotent-commit result cache: exactly-once commits over a lossy wire.

A TCP connection dying between a client's ``commit`` frame and the
server's response leaves the client unable to distinguish "the commit
never ran" from "the commit ran and the acknowledgement was lost".
Blindly re-running the transaction would double-apply it; blindly giving
up could discard a durably committed purchase.  The classic fix is to
decouple *request identity* from *transport*: the client attaches a
unique **commit token** to every tokened commit, and the server records
the authoritative outcome per token in this cache, so a reconnecting
client can ask ``commit.result <token>`` and learn what actually
happened instead of guessing.

Lifecycle of a token:

* ``begin(token)`` — called when a commit carrying the token starts
  executing.  Returns ``None`` for a fresh token (now marked *pending*,
  owned by the caller) or the existing entry: a *resolved* entry means
  the same token was already committed or failed (the caller replays
  that outcome instead of executing again — this is what makes a
  re-sent commit idempotent), a *pending* entry means another session
  is still executing it.
* ``resolve(token, outcome)`` — the commit finished; the outcome
  (``committed`` or ``failed`` plus the marshalled error) becomes
  authoritative and queryable.
* ``cancel(token)`` — the commit never actually started (for example
  the session had no open transaction); the pending mark is retracted
  so a later legitimate use of the token is not poisoned.
* ``lookup(token)`` — the ``commit.result`` verb: resolved outcome,
  ``pending``, or ``unknown`` for a token the cache has never seen
  (or has evicted).

The cache is bounded two ways: entries older than ``ttl`` seconds are
evicted, and the entry count never exceeds ``max_entries`` (oldest
resolved entries go first; pending entries are only evicted under
capacity pressure when nothing resolved remains).  The cache is
in-memory by design — a server crash loses it, which is why ``lookup``
answers are paired with the server's boot epoch on the wire: a client
whose commit predates the current epoch must treat ``unknown`` as
*in doubt*, not as "safe to retry".
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import islice
from typing import Any, Callable, Dict, Optional

__all__ = ["CommitResultCache"]

#: ``status`` values an entry (and a ``commit.result`` reply) may carry.
PENDING = "pending"
COMMITTED = "committed"
FAILED = "failed"
UNKNOWN = "unknown"


class _Entry:
    __slots__ = ("status", "payload", "stamp")

    def __init__(self, status: str, payload: Optional[Dict[str, Any]], stamp: float) -> None:
        self.status = status
        self.payload = payload
        self.stamp = stamp


class CommitResultCache:
    """Bounded, TTL-evicted map of commit token -> authoritative outcome."""

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        # Counters (exposed through the server's stats verb).
        self.recorded = 0
        self.replays = 0
        self.result_hits = 0
        self.result_misses = 0
        self.evicted_ttl = 0
        self.evicted_capacity = 0

    # ------------------------------------------------------------------
    # Token lifecycle
    # ------------------------------------------------------------------

    def begin(self, token: str) -> Optional[Dict[str, Any]]:
        """Claim ``token`` for an about-to-run commit.

        ``None`` means the token is fresh (now pending, caller owns it);
        a dict means the token was seen before — ``status`` is either a
        resolved outcome to replay or ``pending``.
        """
        now = self._clock()
        with self._lock:
            self._evict(now)
            entry = self._entries.get(token)
            if entry is not None:
                if entry.status != PENDING:
                    self.replays += 1
                return self._view(token, entry)
            self._entries[token] = _Entry(PENDING, None, now)
            self.recorded += 1
            return None

    def resolve(self, token: str, outcome: Dict[str, Any]) -> None:
        """Record the authoritative outcome for ``token``.

        ``outcome`` must carry ``status`` (``committed`` or ``failed``)
        plus whatever the replay path needs (``durable``, marshalled
        error fields).  Resolving refreshes the TTL clock: the eviction
        window is measured from the *outcome*, which is what a
        reconnecting client needs to still find.
        """
        status = outcome.get("status")
        if status not in (COMMITTED, FAILED):
            raise ValueError(f"outcome status must be committed/failed: {status!r}")
        now = self._clock()
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                entry = self._entries[token] = _Entry(status, None, now)
            entry.status = status
            entry.payload = dict(outcome)
            entry.stamp = now
            self._entries.move_to_end(token)
            self._evict(now)

    def cancel(self, token: str) -> None:
        """Retract a pending claim whose commit never actually started."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None and entry.status == PENDING:
                del self._entries[token]

    def lookup(self, token: str) -> Dict[str, Any]:
        """The ``commit.result`` backend: outcome, pending, or unknown."""
        now = self._clock()
        with self._lock:
            self._evict(now)
            entry = self._entries.get(token)
            if entry is None:
                self.result_misses += 1
                return {"token": token, "status": UNKNOWN}
            self.result_hits += 1
            return self._view(token, entry)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _view(self, token: str, entry: _Entry) -> Dict[str, Any]:
        if entry.status == PENDING:
            return {"token": token, "status": PENDING}
        payload = dict(entry.payload or {})
        payload["token"] = token
        payload["status"] = entry.status
        return payload

    def _evict(self, now: float) -> None:
        """Drop expired entries, then enforce capacity (lock held)."""
        cutoff = now - self.ttl
        while self._entries:
            token, entry = next(iter(self._entries.items()))
            if entry.stamp >= cutoff:
                break
            del self._entries[token]
            self.evicted_ttl += 1
        if len(self._entries) <= self.max_entries:
            return
        # Capacity pressure: oldest resolved entries go first; a pending
        # entry (a commit literally in flight) is only sacrificed when
        # nothing resolved remains to evict.  The walk stops at the
        # ``overflow``-th resolved entry, so a full cache costs only the
        # pending entries in front of it, not a pass over every token.
        overflow = len(self._entries) - self.max_entries
        victims = []
        for token, entry in self._entries.items():
            if entry.status != PENDING:
                victims.append(token)
                if len(victims) == overflow:
                    break
        victims.extend(islice(self._entries, overflow - len(victims)))
        for token in victims:
            del self._entries[token]
        self.evicted_capacity += len(victims)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "recorded": self.recorded,
                "replays": self.replays,
                "result_hits": self.result_hits,
                "result_misses": self.result_misses,
                "evicted_ttl": self.evicted_ttl,
                "evicted_capacity": self.evicted_capacity,
            }
