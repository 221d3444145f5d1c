"""The one-way counter: a persistent counter that cannot be decremented.

The chunk store binds the counter value into every durable commit.  If a
consumer saves a copy of the database, buys content, and then restores the
old copy, the counter (which the attacker cannot rewind) exceeds the value
authenticated in the restored image and the replay is detected.

The paper points at special-purpose hardware (Infineon Eurochip) but its
own evaluation emulated the counter with a file; :class:`FileOneWayCounter`
does the same with an atomic rename protocol.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod

from repro.errors import StoreError, TamperDetectedError

__all__ = [
    "OneWayCounter",
    "MemoryOneWayCounter",
    "FileOneWayCounter",
    "MirrorOneWayCounter",
]


class OneWayCounter(ABC):
    """Abstract monotonic persistent counter."""

    @abstractmethod
    def read(self) -> int:
        """Return the current counter value."""

    @abstractmethod
    def increment(self) -> int:
        """Advance the counter by one and return the new value."""


class MemoryOneWayCounter(OneWayCounter):
    """In-memory counter for tests and CPU-isolated benchmarks."""

    def __init__(self, value: int = 0) -> None:
        if value < 0:
            raise StoreError("counter cannot start negative")
        self._value = value
        self._lock = threading.Lock()

    def read(self) -> int:
        with self._lock:
            return self._value

    def increment(self) -> int:
        with self._lock:
            self._value += 1
            return self._value


class MirrorOneWayCounter(OneWayCounter):
    """A pinned counter for verifying a shipped candidate image.

    A shipment is a byte-for-byte copy of the primary's untrusted store,
    so the counter value authenticated inside it is the *primary's*.
    Before installing, the replica applier opens the staged candidate
    read-only against this mirror, pinned to the counter value the
    manifest asserts for the shipped generation.  A read-only open
    demands exact equality: it never uses the chunk store's lost-commit
    tolerance (actual == expected - 1 re-advances the counter) and
    raises :class:`TamperDetectedError` instead, so a truncate-one-commit
    + rewind-the-asserted-counter shipment is a detected tamper, not a
    silently accepted rollback.  :meth:`increment` raises the same
    error, so even a writable open of a mirrored image cannot resync it.

    The installed image is not opened against a mirror: it sits under
    the replica's own :class:`FileOneWayCounter`, which the applier
    advances to the verified value on every install.
    """

    def __init__(self, value: int) -> None:
        if value < 0:
            raise StoreError("counter cannot be negative")
        self._value = value

    def read(self) -> int:
        return self._value

    def increment(self) -> int:
        raise TamperDetectedError(
            "replica counter is a read-only mirror of the primary's "
            "one-way counter; the shipped image does not match the "
            "counter value asserted for it"
        )


class FileOneWayCounter(OneWayCounter):
    """File-backed counter with crash-safe, monotonic updates.

    The new value is written to a sibling temp file and renamed over the
    current one, so a crash leaves either the old or the new value, never
    garbage.  Reads refuse to go backwards even if the file was replaced
    with a smaller value while the process ran — the hardware contract is
    monotonicity, so regression is treated as a platform fault.
    """

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        self._lock = threading.Lock()
        self._high_water = 0
        if not os.path.exists(self.path):
            self._persist(0)
        self._high_water = self._load()

    @classmethod
    def initialize(cls, path: str, value: int) -> "FileOneWayCounter":
        """Seed (or fast-forward) the counter file at ``path`` to ``value``.

        Used by the replica applier: every install advances the
        replica's own counter to the value it verified for the shipped
        image.  Refuses to move an existing counter backwards — that
        would be exactly the rewind the counter exists to prevent.
        """
        if value < 0:
            raise StoreError("counter cannot be negative")
        counter = cls(path)
        with counter._lock:
            current = counter._load()
            if current > value:
                raise StoreError(
                    "refusing to rewind one-way counter "
                    f"({current} -> {value})"
                )
            counter._persist(value)
            counter._high_water = value
        return counter

    def _load(self) -> int:
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read().strip()
            value = int(raw.decode("ascii"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"one-way counter file unreadable: {exc}") from exc
        if value < 0:
            raise StoreError("one-way counter file holds a negative value")
        return value

    def _persist(self, value: int) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(str(value).encode("ascii"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def read(self) -> int:
        with self._lock:
            value = self._load()
            if value < self._high_water:
                raise StoreError(
                    "one-way counter regressed on disk "
                    f"({value} < {self._high_water}); platform violated monotonicity"
                )
            self._high_water = value
            return value

    def increment(self) -> int:
        with self._lock:
            value = self._load()
            if value < self._high_water:
                raise StoreError(
                    "one-way counter regressed on disk "
                    f"({value} < {self._high_water}); platform violated monotonicity"
                )
            value += 1
            self._persist(value)
            self._high_water = value
            return value
