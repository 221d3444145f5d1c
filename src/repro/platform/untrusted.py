"""The untrusted store: file-system-like random-access storage.

The chunk store keeps its log segments and master record here, and the
baseline engine keeps its page files and WAL here.  The threat model is
that an attacker may read, modify, or replace any content at any time —
secrecy and integrity are provided *above* this layer, never by it.

Error contract: every failure surfaces as a :class:`StoreError` (or its
:class:`TransientStoreError` subclass for faults worth retrying) — raw
``OSError`` never escapes this layer, so the "everything derives from
``TDBError``" promise of :mod:`repro.errors` holds for media faults too.
"""

from __future__ import annotations

import errno
import os
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.errors import StoreError, TransientStoreError
from repro.platform.iostats import IOStats

__all__ = [
    "UntrustedStore",
    "MemoryUntrustedStore",
    "FileUntrustedStore",
    "TRANSIENT_ERRNOS",
    "classify_os_error",
]


#: errno values treated as transient media faults: the same call may
#: succeed if retried (interrupted syscall, busy device, timeout, the
#: recoverable read errors flaky removable media produce).
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EINTR,
        errno.EAGAIN,
        errno.EBUSY,
        errno.ETIMEDOUT,
        errno.EIO,
    }
)


def classify_os_error(exc: OSError, context: str) -> StoreError:
    """Map a raw ``OSError`` into the store-error taxonomy.

    Transient errnos become :class:`TransientStoreError` (retryable);
    everything else — missing files, permissions, full disks — is a
    permanent :class:`StoreError`.
    """
    if exc.errno in TRANSIENT_ERRNOS:
        return TransientStoreError(f"transient I/O fault during {context}: {exc}")
    return StoreError(f"I/O failure during {context}: {exc}")


@contextmanager
def _translating(context: str):
    """Re-raise any ``OSError`` inside the block as a classified store error."""
    try:
        yield
    except OSError as exc:
        raise classify_os_error(exc, context) from exc


class UntrustedStore(ABC):
    """Abstract random-access store of named byte files.

    Offsets may point past the current end of a file: writes extend the
    file, zero-filling any gap, mirroring POSIX sparse-file semantics.
    """

    def __init__(self) -> None:
        self.stats = IOStats()

    # -- namespace ---------------------------------------------------------

    @abstractmethod
    def list_files(self) -> List[str]:
        """Return the names of all files, sorted."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """Return whether a file called ``name`` exists."""

    @abstractmethod
    def size(self, name: str) -> int:
        """Return the size of ``name`` in bytes."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove ``name``; raise :class:`StoreError` if absent."""

    # -- data --------------------------------------------------------------

    @abstractmethod
    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read ``length`` bytes (to EOF when ``None``) at ``offset``."""

    @abstractmethod
    def write(self, name: str, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, creating / extending the file."""

    @abstractmethod
    def truncate(self, name: str, size: int) -> None:
        """Shrink or zero-extend ``name`` to exactly ``size`` bytes."""

    @abstractmethod
    def sync(self, name: str) -> None:
        """Flush ``name`` through any caches to stable storage."""

    # -- conveniences ------------------------------------------------------

    def append(self, name: str, data: bytes) -> int:
        """Append ``data`` to ``name`` and return the offset it landed at."""
        offset = self.size(name) if self.exists(name) else 0
        self.write(name, offset, data)
        return offset

    def total_bytes(self) -> int:
        """Total bytes across all files (the on-disk database size)."""
        return sum(self.size(name) for name in self.list_files())


class MemoryUntrustedStore(UntrustedStore):
    """In-memory implementation backed by ``bytearray`` objects.

    Used by the test suite, by the attacker toolkit (its contents can be
    snapshotted and replayed trivially), and by benchmarks that want to
    isolate CPU costs from the filesystem.
    """

    def __init__(self) -> None:
        super().__init__()
        self._files: Dict[str, bytearray] = {}
        self._lock = threading.Lock()

    def list_files(self) -> List[str]:
        with self._lock:
            return sorted(self._files)

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def size(self, name: str) -> int:
        with self._lock:
            return len(self._require(name))

    def delete(self, name: str) -> None:
        with self._lock:
            self._require(name)
            del self._files[name]

    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        with self._lock:
            buf = self._require(name)
            end = len(buf) if length is None else offset + length
            data = bytes(buf[offset:end])
        self.stats.record_read(len(data))
        return data

    def write(self, name: str, offset: int, data: bytes) -> None:
        with self._lock:
            buf = self._files.setdefault(name, bytearray())
            if offset > len(buf):
                buf.extend(b"\x00" * (offset - len(buf)))
            buf[offset:offset + len(data)] = data
        self.stats.record_write(len(data), name, offset)

    def truncate(self, name: str, size: int) -> None:
        with self._lock:
            buf = self._require(name)
            if size <= len(buf):
                del buf[size:]
            else:
                buf.extend(b"\x00" * (size - len(buf)))

    def sync(self, name: str) -> None:
        self.stats.record_sync()

    def _require(self, name: str) -> bytearray:
        buf = self._files.get(name)
        if buf is None:
            raise StoreError(f"no such file in untrusted store: {name!r}")
        return buf


class FileUntrustedStore(UntrustedStore):
    """Directory-backed implementation using real files.

    File names are mapped one-to-one to entries of ``root``; nested names
    are rejected to keep the namespace flat like the paper's file-system
    interface.

    All operations — metadata probes included — run under one lock, so a
    concurrent ``write``/``truncate`` cannot interleave with the
    existence probe another thread's ``write`` bases its open mode on,
    and ``list_files``/``exists``/``size`` observe a consistent
    namespace.  Raw ``OSError`` is translated to
    :class:`StoreError`/:class:`TransientStoreError` at every entry
    point.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        with _translating(f"creating store directory {root!r}"):
            self.root = os.path.abspath(root)
            os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, name: str) -> str:
        if not name or "/" in name or os.sep in name or name in (".", ".."):
            raise StoreError(f"invalid untrusted-store file name: {name!r}")
        return os.path.join(self.root, name)

    def list_files(self) -> List[str]:
        with self._lock, _translating("listing store directory"):
            return sorted(
                entry for entry in os.listdir(self.root)
                if os.path.isfile(os.path.join(self.root, entry))
            )

    def exists(self, name: str) -> bool:
        path = self._path(name)
        with self._lock, _translating(f"probing {name!r}"):
            return os.path.isfile(path)

    def size(self, name: str) -> int:
        path = self._path(name)
        with self._lock, _translating(f"sizing {name!r}"):
            if not os.path.isfile(path):
                raise StoreError(f"no such file in untrusted store: {name!r}")
            return os.path.getsize(path)

    def delete(self, name: str) -> None:
        path = self._path(name)
        with self._lock, _translating(f"deleting {name!r}"):
            if not os.path.isfile(path):
                raise StoreError(f"no such file in untrusted store: {name!r}")
            os.remove(path)

    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        path = self._path(name)
        with self._lock, _translating(f"reading {name!r}"):
            if not os.path.isfile(path):
                raise StoreError(f"no such file in untrusted store: {name!r}")
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read() if length is None else handle.read(length)
        self.stats.record_read(len(data))
        return data

    def write(self, name: str, offset: int, data: bytes) -> None:
        path = self._path(name)
        with self._lock, _translating(f"writing {name!r}"):
            # The mode probe must sit inside the lock: another thread's
            # write may create the file between probe and open, and
            # "w+b" would then truncate its data away.
            mode = "r+b" if os.path.isfile(path) else "w+b"
            with open(path, mode) as handle:
                handle.seek(0, os.SEEK_END)
                end = handle.tell()
                if offset > end:
                    handle.write(b"\x00" * (offset - end))
                handle.seek(offset)
                handle.write(data)
        self.stats.record_write(len(data), name, offset)

    def truncate(self, name: str, size: int) -> None:
        path = self._path(name)
        with self._lock, _translating(f"truncating {name!r}"):
            if not os.path.isfile(path):
                raise StoreError(f"no such file in untrusted store: {name!r}")
            with open(path, "r+b") as handle:
                handle.truncate(size)

    def sync(self, name: str) -> None:
        path = self._path(name)
        with self._lock, _translating(f"syncing {name!r}"):
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    os.fsync(handle.fileno())
        self.stats.record_sync()
