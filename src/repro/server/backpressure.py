"""Admission control and timeout policy for the TDB service.

Three bounds keep an overloaded server shedding load instead of growing
queues without limit (the GlassDB-style service boundary in front of a
verifiable store needs all three):

* **session count** — at most ``max_sessions`` concurrent connections;
  further connects are answered with a transient
  :class:`~repro.errors.ServerBusyError` frame and closed,
* **pending commits** — the group-commit coordinator bounds its queue
  at ``MAX_PENDING`` requests (see :mod:`repro.objectstore.groupcommit`),
* **time** — ``idle_timeout`` bounds how long a session may sit between
  requests and ``request_timeout`` bounds how long one frame may dribble
  in; either firing aborts the session's open transaction (releasing
  its strict-2PL locks so other sessions stop waiting on a dead client)
  and closes the connection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ServerBusyError
from repro.server import protocol

__all__ = ["BackpressureConfig", "AdmissionControl"]


@dataclass(frozen=True)
class BackpressureConfig:
    """Bounds of the service layer.

    ``idle_timeout``
        Seconds a session may wait between requests before the server
        aborts its transaction and drops the connection.
    ``request_timeout``
        Seconds one request frame may take to arrive completely once
        its first byte has been read (slow-writer protection) — an
        absolute deadline across partial reads, so trickled bytes do
        not reset it.
    ``resume_grace``
        Seconds a session whose connection *dropped* (rather than timed
        out or closed cleanly) stays parked server-side with its
        transaction and locks intact, waiting for the client to
        reconnect via ``session.resume``.  Effectively capped at
        ``idle_timeout`` (a parked session must never outlive an idle
        one); ``0`` disables parking and restores abort-on-drop.
    """

    max_sessions: int = 64
    idle_timeout: float = 30.0
    request_timeout: float = 10.0
    resume_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.resume_grace < 0:
            raise ValueError("resume_grace must be non-negative")

    @property
    def effective_resume_grace(self) -> float:
        """The grace window actually applied: never beyond idle_timeout."""
        return min(self.resume_grace, self.idle_timeout)


class AdmissionControl:
    """Bounded session-slot accounting (thread-safe)."""

    def __init__(self, max_sessions: int) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._mutex = threading.Lock()
        self._active = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.timeout_aborts = 0

    def try_admit(self) -> bool:
        """Claim a session slot; ``False`` when the server is full."""
        with self._mutex:
            if self._active >= self.max_sessions:
                self.rejected_total += 1
                return False
            self._active += 1
            self.admitted_total += 1
            return True

    def refusal(self) -> Dict[str, Any]:
        """The frame a connection refused by :meth:`try_admit` is sent
        (it precedes any request, so it cannot echo an id)."""
        return protocol.error_payload(
            None, ServerBusyError(f"server full ({self.max_sessions} sessions)")
        )

    def release(self) -> None:
        """Return a previously claimed slot."""
        with self._mutex:
            if self._active > 0:
                self._active -= 1

    def record_timeout_abort(self) -> None:
        """A session timeout aborted an open transaction."""
        with self._mutex:
            self.timeout_aborts += 1

    @property
    def active(self) -> int:
        with self._mutex:
            return self._active

    def as_dict(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "active_sessions": self._active,
                "max_sessions": self.max_sessions,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "timeout_aborts": self.timeout_aborts,
            }
