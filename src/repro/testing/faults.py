"""Deterministic fault injection for the untrusted platform stores.

The paper's guarantees are stated over *schedules* an adversary or a
power cut can impose on the untrusted store: the process may die between
or inside any two media operations, and the media themselves may be
modified offline at any byte.  This module makes those schedules explicit
and repeatable:

* :class:`FaultyUntrustedStore` wraps any :class:`UntrustedStore` behind
  the same interface and counts every mutating operation (write,
  truncate, delete) and every sync, so a sweep can enumerate *all*
  operation boundaries of a workload rather than sampling a few,
* :class:`FaultSchedule` describes what to inject and when: crash after
  the Nth write, crash in the middle of the Nth write (a torn append),
  crash after the Nth sync, bit-flips at chosen offsets, sector zeroing,
  whole-image replay from a recorded snapshot, and transient failures
  (the Nth read/write/sync raises
  :class:`~repro.errors.TransientStoreError` ``times`` attempts in a
  row, then recovers — the schedule the resilient retry layer exists
  for),
* :class:`FaultyArchivalStore` gives backup streams the same treatment.

A fired crash raises :class:`InjectedCrash` — deliberately *not* a
:class:`~repro.errors.TDBError`, so no library error handler can mistake
it for a condition it is supposed to recover from.  After a crash every
further operation on the store raises too (the process is "dead");
:meth:`FaultyUntrustedStore.heal` models rebooting with the surviving
media.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.errors import StoreError, TransientStoreError
from repro.platform.archival import ArchivalStore
from repro.platform.untrusted import MemoryUntrustedStore, UntrustedStore

__all__ = [
    "InjectedCrash",
    "Fault",
    "FaultSchedule",
    "FaultyUntrustedStore",
    "FaultyArchivalStore",
]


class InjectedCrash(Exception):
    """A scheduled crash point fired (simulated power loss).

    Not a :class:`TDBError`: the library must never catch or convert it.
    """


# Fault actions.
CRASH = "crash"         # complete the operation, then crash
TORN = "torn"           # apply only a prefix of the write, then crash
FLIP = "flip"           # complete the operation, then flip bits on the media
ZERO = "zero"           # complete the operation, then zero a byte region
REPLAY = "replay"       # complete the operation, then replace the whole image
TRANSIENT = "transient" # fail with TransientStoreError *before* the operation

_ACTIONS = (CRASH, TORN, FLIP, ZERO, REPLAY, TRANSIENT)


@dataclass
class Fault:
    """One scheduled fault.

    ``on``/``index`` select the trigger: the ``index``-th (1-based)
    mutating operation (``on="write"`` — truncate and delete count too,
    they mutate the media), the ``index``-th sync (``on="sync"``), or
    the ``index``-th read (``on="read"``, transient faults only).
    ``action`` selects what happens there.

    A :data:`TRANSIENT` fault raises
    :class:`~repro.errors.TransientStoreError` *before* the operation
    reaches the media and does **not** consume the operation index, so a
    retrying caller hits the same fault again until its ``times`` budget
    is spent — the flaky-then-recover schedule the resilient store's
    backoff is built for.  ``times`` larger than the retry budget models
    a fault that never recovers (the giveup path).
    """

    on: str                     # "write" | "sync" | "read"
    index: int                  # 1-based operation index
    action: str                 # one of _ACTIONS
    name: Optional[str] = None  # target file for flip/zero
    offset: int = 0             # byte offset for flip/zero
    length: int = 0             # region length for zero
    mask: int = 0x01            # xor mask for flip
    keep: int = 0               # bytes of the write that land for torn
    image: Optional[Dict[str, bytes]] = None  # replacement image for replay
    times: int = 1              # consecutive failures for transient
    remaining: int = field(init=False, default=0)
    fired: bool = False

    def __post_init__(self) -> None:
        if self.on not in ("write", "sync", "read"):
            raise ValueError(
                f"fault trigger must be 'write', 'sync' or 'read': {self.on!r}"
            )
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.on == "read" and self.action != TRANSIENT:
            raise ValueError("read faults support only the transient action")
        if self.index < 1:
            raise ValueError("fault indices are 1-based")
        if self.action == TORN and self.keep < 0:
            raise ValueError("torn writes keep a non-negative byte count")
        if self.times < 1:
            raise ValueError("transient faults fire at least once")
        self.remaining = self.times if self.action == TRANSIENT else 0

    def describe(self) -> str:
        where = f"{self.on}#{self.index}"
        if self.action == TORN:
            return f"torn {where} (keep {self.keep} bytes)"
        if self.action == FLIP:
            return f"flip {where} {self.name}@{self.offset} mask 0x{self.mask:02x}"
        if self.action == ZERO:
            return f"zero {where} {self.name}@{self.offset}+{self.length}"
        if self.action == REPLAY:
            return f"replay image after {where}"
        if self.action == TRANSIENT:
            return f"transient {where} x{self.times}"
        return f"crash after {where}"


class FaultSchedule:
    """An ordered collection of :class:`Fault` objects.

    Build one with the named helpers (mirroring the fault menu) or by
    passing faults directly; hand it to a :class:`FaultyUntrustedStore`.
    """

    def __init__(self, faults: Optional[List[Fault]] = None) -> None:
        self.faults: List[Fault] = list(faults or [])

    # -- builders ----------------------------------------------------------

    def add(self, fault: Fault) -> "FaultSchedule":
        self.faults.append(fault)
        return self

    def crash_after_write(self, index: int) -> "FaultSchedule":
        return self.add(Fault(on="write", index=index, action=CRASH))

    def crash_mid_write(self, index: int, keep: int) -> "FaultSchedule":
        return self.add(Fault(on="write", index=index, action=TORN, keep=keep))

    def crash_after_sync(self, index: int) -> "FaultSchedule":
        return self.add(Fault(on="sync", index=index, action=CRASH))

    def flip_after_write(
        self, index: int, name: str, offset: int, mask: int = 0x01
    ) -> "FaultSchedule":
        return self.add(
            Fault(on="write", index=index, action=FLIP, name=name,
                  offset=offset, mask=mask)
        )

    def zero_after_write(
        self, index: int, name: str, offset: int, length: int
    ) -> "FaultSchedule":
        return self.add(
            Fault(on="write", index=index, action=ZERO, name=name,
                  offset=offset, length=length)
        )

    def replay_after_write(
        self, index: int, image: Dict[str, bytes]
    ) -> "FaultSchedule":
        return self.add(Fault(on="write", index=index, action=REPLAY, image=image))

    def transient_on_read(self, index: int, times: int = 1) -> "FaultSchedule":
        return self.add(Fault(on="read", index=index, action=TRANSIENT, times=times))

    def transient_on_write(self, index: int, times: int = 1) -> "FaultSchedule":
        return self.add(Fault(on="write", index=index, action=TRANSIENT, times=times))

    def transient_on_sync(self, index: int, times: int = 1) -> "FaultSchedule":
        return self.add(Fault(on="sync", index=index, action=TRANSIENT, times=times))

    # -- queries -----------------------------------------------------------

    def matching(self, on: str, index: int) -> List[Fault]:
        return [f for f in self.faults if f.on == on and f.index == index]

    def unfired(self) -> List[Fault]:
        return [f for f in self.faults if not f.fired]

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults) or "no faults"


class FaultyUntrustedStore(UntrustedStore):
    """An :class:`UntrustedStore` that injects scheduled faults.

    Wraps ``inner`` (a fresh :class:`MemoryUntrustedStore` by default) and
    is substitutable anywhere the trusted layers expect an untrusted
    store.  Mutating operations and syncs are counted; matching faults
    from :attr:`schedule` fire at their boundary.
    """

    def __init__(
        self,
        inner: Optional[UntrustedStore] = None,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__()
        self.inner = inner if inner is not None else MemoryUntrustedStore()
        self.schedule = schedule or FaultSchedule()
        self.total_writes = 0        # mutating ops: write, truncate, delete
        self.total_syncs = 0
        self.total_reads = 0         # read() calls that reached the media
        self.op_log: List[Tuple[str, str, int]] = []  # (kind, name, nbytes)
        self.crashed = False

    # -- crash machinery ---------------------------------------------------

    def _check_alive(self) -> None:
        if self.crashed:
            raise InjectedCrash("store crashed earlier in this schedule")

    def _crash(self, fault: Fault) -> None:
        fault.fired = True
        self.crashed = True
        raise InjectedCrash(fault.describe())

    def _apply_post_faults(self, faults: List[Fault]) -> None:
        for fault in faults:
            if fault.action == CRASH:
                self._crash(fault)
            elif fault.action == FLIP:
                fault.fired = True
                self.flip_bits(fault.name, fault.offset, fault.mask)
            elif fault.action == ZERO:
                fault.fired = True
                self.zero_region(fault.name, fault.offset, fault.length)
            elif fault.action == REPLAY:
                fault.fired = True
                self.load_image(fault.image or {})

    def _maybe_transient(self, on: str, candidate: int, context: str) -> None:
        """Fire a pending transient fault for the *candidate* op index.

        Raising here leaves the operation counter untouched, so a retry
        of the same logical operation meets the same fault again until
        its ``times`` budget runs out and the operation finally lands.
        """
        for fault in self.schedule.matching(on, candidate):
            if fault.action == TRANSIENT and fault.remaining > 0:
                fault.remaining -= 1
                fault.fired = True
                raise TransientStoreError(
                    f"injected {fault.describe()} during {context}"
                )

    def heal(self) -> None:
        """Reboot: clear the crashed flag and drop the remaining schedule."""
        self.crashed = False
        self.schedule = FaultSchedule()

    # -- mutating operations (fault boundaries) ----------------------------

    def write(self, name: str, offset: int, data: bytes) -> None:
        self._check_alive()
        self._maybe_transient("write", self.total_writes + 1, f"write({name!r})")
        self.total_writes += 1
        faults = self.schedule.matching("write", self.total_writes)
        for fault in faults:
            if fault.action == TORN:
                keep = max(0, min(fault.keep, len(data)))
                if keep:
                    self.inner.write(name, offset, data[:keep])
                self.op_log.append(("write", name, keep))
                self._crash(fault)
        self.inner.write(name, offset, data)
        self.op_log.append(("write", name, len(data)))
        self._apply_post_faults(faults)

    def truncate(self, name: str, size: int) -> None:
        self._check_alive()
        self._maybe_transient("write", self.total_writes + 1, f"truncate({name!r})")
        self.total_writes += 1
        faults = self.schedule.matching("write", self.total_writes)
        for fault in faults:
            if fault.action == TORN:
                # A "torn" truncate never reaches the media.
                self.op_log.append(("truncate", name, 0))
                self._crash(fault)
        self.inner.truncate(name, size)
        self.op_log.append(("truncate", name, size))
        self._apply_post_faults(faults)

    def delete(self, name: str) -> None:
        self._check_alive()
        self._maybe_transient("write", self.total_writes + 1, f"delete({name!r})")
        self.total_writes += 1
        faults = self.schedule.matching("write", self.total_writes)
        for fault in faults:
            if fault.action == TORN:
                self.op_log.append(("delete", name, 0))
                self._crash(fault)
        self.inner.delete(name)
        self.op_log.append(("delete", name, 0))
        self._apply_post_faults(faults)

    def sync(self, name: str) -> None:
        self._check_alive()
        self._maybe_transient("sync", self.total_syncs + 1, f"sync({name!r})")
        self.total_syncs += 1
        self.inner.sync(name)
        self.op_log.append(("sync", name, 0))
        self._apply_post_faults(self.schedule.matching("sync", self.total_syncs))

    # -- read-side delegation ----------------------------------------------

    def list_files(self) -> List[str]:
        self._check_alive()
        return self.inner.list_files()

    def exists(self, name: str) -> bool:
        self._check_alive()
        return self.inner.exists(name)

    def size(self, name: str) -> int:
        self._check_alive()
        return self.inner.size(name)

    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        self._check_alive()
        self._maybe_transient("read", self.total_reads + 1, f"read({name!r})")
        self.total_reads += 1
        return self.inner.read(name, offset, length)

    def close(self) -> None:
        self.inner.close()

    # -- offline manipulation (does not count as operations) ---------------

    def save_image(self) -> Dict[str, bytes]:
        """Record a full media snapshot (step one of a replay attack)."""
        return {name: self.inner.read(name) for name in self.inner.list_files()}

    def load_image(self, image: Dict[str, bytes]) -> None:
        """Replace the media contents with a recorded snapshot."""
        for name in self.inner.list_files():
            if name not in image:
                self.inner.delete(name)
        for name, data in image.items():
            if self.inner.exists(name):
                self.inner.truncate(name, 0)
            self.inner.write(name, 0, data)

    def flip_bits(self, name: str, offset: int, mask: int = 0x01) -> None:
        """XOR ``mask`` into the byte of ``name`` at ``offset``."""
        size = self.inner.size(name)
        if not 0 <= offset < size:
            raise StoreError(f"flip offset {offset} outside {name!r} (size {size})")
        original = self.inner.read(name, offset, 1)
        self.inner.write(name, offset, bytes([original[0] ^ (mask & 0xFF)]))

    def zero_region(self, name: str, offset: int, length: int) -> None:
        """Overwrite ``length`` bytes of ``name`` at ``offset`` with zeros."""
        size = self.inner.size(name)
        if not 0 <= offset <= size:
            raise StoreError(f"zero offset {offset} outside {name!r} (size {size})")
        length = min(length, size - offset)
        if length > 0:
            self.inner.write(name, offset, b"\x00" * length)


class _FaultyStreamWriter(io.RawIOBase):
    """Stream writer that counts writes and fires scheduled faults."""

    def __init__(self, store: "FaultyArchivalStore", inner: BinaryIO) -> None:
        super().__init__()
        self._store = store
        self._inner = inner

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self._store.crashed:
            raise InjectedCrash("archival store crashed earlier in this schedule")
        self._store.total_writes += 1
        faults = self._store.schedule.matching("write", self._store.total_writes)
        for fault in faults:
            if fault.action == TORN:
                keep = max(0, min(fault.keep, len(data)))
                if keep:
                    self._inner.write(bytes(data[:keep]))
                self._inner.close()
                fault.fired = True
                self._store.crashed = True
                raise InjectedCrash(fault.describe())
        written = self._inner.write(bytes(data))
        for fault in faults:
            if fault.action == CRASH:
                self._inner.close()
                fault.fired = True
                self._store.crashed = True
                raise InjectedCrash(fault.describe())
        return written if written is not None else len(data)

    def close(self) -> None:
        if not self.closed:
            self._inner.close()
        super().close()


class FaultyArchivalStore(ArchivalStore):
    """An :class:`ArchivalStore` whose stream writes can crash or tear."""

    def __init__(
        self,
        inner: ArchivalStore,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.inner = inner
        self.schedule = schedule or FaultSchedule()
        self.total_writes = 0
        self.crashed = False

    def heal(self) -> None:
        self.crashed = False
        self.schedule = FaultSchedule()

    def create_stream(self, name: str) -> BinaryIO:
        if self.crashed:
            raise InjectedCrash("archival store crashed earlier in this schedule")
        return _FaultyStreamWriter(self, self.inner.create_stream(name))

    def open_stream(self, name: str) -> BinaryIO:
        if self.crashed:
            raise InjectedCrash("archival store crashed earlier in this schedule")
        return self.inner.open_stream(name)

    def list_streams(self) -> List[str]:
        return self.inner.list_streams()

    def delete_stream(self, name: str) -> None:
        self.inner.delete_stream(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)
