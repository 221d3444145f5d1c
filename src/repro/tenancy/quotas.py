"""Per-tenant quotas: limits and their in-memory enforcement state.

Four budgets, all per tenant (ISSUE: "sessions, pending commits, stored
bytes, txn/s token bucket"):

``max_sessions``
    Concurrent authenticated sessions.  Checked when the ``auth``
    challenge–response succeeds — an attacker who cannot authenticate
    cannot consume this budget.
``max_pending_commits``
    Commits in flight at once.  Checked at commit start, released when
    the commit settles either way — the tenant-scoped analogue of the
    server-wide backpressure gate.
``max_bytes``
    Cumulative committed payload bytes, *accounting-based*: each
    transaction's cost is the JSON size of the values its mutating verbs
    carried, known before the commit reaches the tenant's chunk store.
    Restored from the durable meter on tenant open.
``txn_rate``
    A token bucket refilled at ``txn_rate`` tokens/second with
    ``burst`` capacity; every ``begin`` takes one token.

A limit of 0 (or 0.0) disables that budget.  Every refusal raises
:class:`~repro.errors.QuotaExceededError` — a ``ServerBusyError``
subclass, hence marshalled transient: clients back off and retry, and a
tenant saturating its own budget degrades only itself.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.errors import ConfigError, QuotaExceededError

__all__ = ["TenantQuotas", "QuotaState"]


@dataclass(frozen=True)
class TenantQuotas:
    """The configured limits of one tenant (0 disables a budget)."""

    max_sessions: int = 16
    max_pending_commits: int = 8
    max_bytes: int = 64 * 1024 * 1024
    txn_rate: float = 0.0
    burst: int = 0

    def __post_init__(self) -> None:
        for name in ("max_sessions", "max_pending_commits", "max_bytes", "burst"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer")
        if not isinstance(self.txn_rate, (int, float)) or self.txn_rate < 0:
            raise ConfigError("txn_rate must be a non-negative number")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_sessions": self.max_sessions,
            "max_pending_commits": self.max_pending_commits,
            "max_bytes": self.max_bytes,
            "txn_rate": self.txn_rate,
            "burst": self.burst,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantQuotas":
        fields = {}
        for name in ("max_sessions", "max_pending_commits", "max_bytes", "burst"):
            if name in data:
                fields[name] = int(data[name])
        if "txn_rate" in data:
            fields["txn_rate"] = float(data["txn_rate"])
        return cls(**fields)

    @property
    def bucket_capacity(self) -> float:
        if self.txn_rate <= 0:
            return 0.0
        return float(self.burst) if self.burst > 0 else float(
            max(1, math.ceil(self.txn_rate))
        )


class QuotaState:
    """In-memory enforcement state for one open tenant.

    Thread-safe; refusals raise :class:`QuotaExceededError` with a
    ``kind`` attribute (``"sessions"`` / ``"pending"`` / ``"bytes"`` /
    ``"txn_rate"``) so the caller can audit which budget tripped.
    """

    def __init__(
        self,
        quotas: TenantQuotas,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.quotas = quotas
        self._clock = clock
        self._lock = threading.Lock()
        self.sessions = 0
        self.pending = 0
        self.bytes_committed = 0
        self._tokens = quotas.bucket_capacity
        self._stamp = clock()
        self.trips: Dict[str, int] = {
            "sessions": 0, "pending": 0, "bytes": 0, "txn_rate": 0,
        }

    @staticmethod
    def _refuse(kind: str, message: str) -> QuotaExceededError:
        exc = QuotaExceededError(message)
        exc.kind = kind
        return exc

    # -- sessions ----------------------------------------------------------

    def admit_session(self) -> None:
        limit = self.quotas.max_sessions
        with self._lock:
            if limit and self.sessions >= limit:
                self.trips["sessions"] += 1
                raise self._refuse(
                    "sessions",
                    f"tenant session quota exhausted ({limit} concurrent)",
                )
            self.sessions += 1

    def release_session(self) -> None:
        with self._lock:
            self.sessions = max(0, self.sessions - 1)

    # -- txn/s token bucket ------------------------------------------------

    def take_txn_token(self) -> None:
        rate = self.quotas.txn_rate
        if rate <= 0:
            return
        capacity = self.quotas.bucket_capacity
        with self._lock:
            now = self._clock()
            self._tokens = min(
                capacity, self._tokens + (now - self._stamp) * rate
            )
            self._stamp = now
            if self._tokens < 1.0:
                self.trips["txn_rate"] += 1
                raise self._refuse(
                    "txn_rate",
                    f"tenant transaction-rate quota exhausted ({rate}/s)",
                )
            self._tokens -= 1.0

    # -- commits -----------------------------------------------------------

    def begin_commit(self, txn_bytes: int) -> None:
        q = self.quotas
        with self._lock:
            if q.max_pending_commits and self.pending >= q.max_pending_commits:
                self.trips["pending"] += 1
                raise self._refuse(
                    "pending",
                    "tenant pending-commit quota exhausted "
                    f"({q.max_pending_commits} in flight)",
                )
            if q.max_bytes and self.bytes_committed + txn_bytes > q.max_bytes:
                self.trips["bytes"] += 1
                raise self._refuse(
                    "bytes",
                    f"tenant stored-bytes quota exhausted ({q.max_bytes} bytes)",
                )
            self.pending += 1

    def end_commit(self, txn_bytes: int, committed: bool) -> None:
        with self._lock:
            self.pending = max(0, self.pending - 1)
            if committed:
                self.bytes_committed += txn_bytes

    # -- introspection -----------------------------------------------------

    def usage(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sessions": self.sessions,
                "pending_commits": self.pending,
                "bytes_committed": self.bytes_committed,
                "trips": dict(self.trips),
            }
