"""I/O accounting shared by the platform stores.

The paper attributes TDB's TPC-B win mostly to write volume (~523 bytes
per transaction vs ~1100 for Berkeley DB, section 7.4).  Since absolute
wall-clock numbers on a 2001 disk are not reproducible, the benchmark
harness relies on these counters to compare the mechanisms, so every
store implementation funnels its traffic through an :class:`IOStats`.

The counters are updated under an internal mutex: with the service layer
(:mod:`repro.server`) many sessions drive one platform store from
different threads, and bare ``+=`` on shared ints drops increments under
contention.  Snapshots (:meth:`snapshot` / :meth:`delta_since`) are
detached copies and need no further synchronization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable counters of traffic through a platform store.

    ``random_writes`` counts writes that did not continue where the
    previous write to the same file ended — on a disk those pay a seek,
    which is the cost difference between a log-structured store's
    sequential appends and a page store's scattered write-back.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0
    sync_calls: int = 0
    random_writes: int = 0
    transient_retries: int = 0
    transient_giveups: int = 0
    _write_cursors: Dict[str, int] = field(default_factory=dict, repr=False)
    _sections: Dict[str, Callable[[], Dict[str, object]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def attach_section(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Nest ``provider()``'s dict under ``name`` in :meth:`as_dict`.

        The chunk store attaches its :class:`~repro.perf.PerfStats` here
        as ``perf``, so one ``stats`` round-trip reports I/O *and* the
        per-kernel crypto table.  Providers must be cheap and
        thread-safe; snapshots and deltas carry plain counters only (no
        sections).
        """
        with self._lock:
            self._sections[name] = provider

    def record_read(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_read += nbytes
            self.read_calls += 1

    def record_write(
        self, nbytes: int, name: Optional[str] = None, offset: Optional[int] = None
    ) -> None:
        with self._lock:
            self.bytes_written += nbytes
            self.write_calls += 1
            if name is not None and offset is not None:
                if self._write_cursors.get(name) != offset:
                    self.random_writes += 1
                self._write_cursors[name] = offset + nbytes

    def record_sync(self) -> None:
        with self._lock:
            self.sync_calls += 1

    def record_retry(self) -> None:
        """One transient fault absorbed by retrying the operation."""
        with self._lock:
            self.transient_retries += 1

    def record_giveup(self) -> None:
        """Retries exhausted; the transient fault escaped to the caller."""
        with self._lock:
            self.transient_giveups += 1

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        with self._lock:
            self.bytes_read = 0
            self.bytes_written = 0
            self.read_calls = 0
            self.write_calls = 0
            self.sync_calls = 0
            self.random_writes = 0
            self.transient_retries = 0
            self.transient_giveups = 0
            self._write_cursors.clear()

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        with self._lock:
            return IOStats(
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
                read_calls=self.read_calls,
                write_calls=self.write_calls,
                sync_calls=self.sync_calls,
                random_writes=self.random_writes,
                transient_retries=self.transient_retries,
                transient_giveups=self.transient_giveups,
            )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return the difference between these counters and ``earlier``."""
        current = self.snapshot()
        return IOStats(
            bytes_read=current.bytes_read - earlier.bytes_read,
            bytes_written=current.bytes_written - earlier.bytes_written,
            read_calls=current.read_calls - earlier.read_calls,
            write_calls=current.write_calls - earlier.write_calls,
            sync_calls=current.sync_calls - earlier.sync_calls,
            random_writes=current.random_writes - earlier.random_writes,
            transient_retries=(
                current.transient_retries - earlier.transient_retries
            ),
            transient_giveups=(
                current.transient_giveups - earlier.transient_giveups
            ),
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-able view of the counters (the service ``stats`` verb)."""
        current = self.snapshot()
        with self._lock:
            sections = dict(self._sections)
        out: Dict[str, object] = {
            "bytes_read": current.bytes_read,
            "bytes_written": current.bytes_written,
            "read_calls": current.read_calls,
            "write_calls": current.write_calls,
            "sync_calls": current.sync_calls,
            "random_writes": current.random_writes,
            "transient_retries": current.transient_retries,
            "transient_giveups": current.transient_giveups,
        }
        for name, provider in sections.items():
            out[name] = provider()
        return out
