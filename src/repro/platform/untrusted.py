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
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.errors import StoreError, TransientStoreError
from repro.platform.iostats import IOStats

__all__ = [
    "UntrustedStore",
    "MemoryUntrustedStore",
    "FileUntrustedStore",
    "MAX_OPEN_FILES",
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


#: Most descriptors one :class:`FileUntrustedStore` keeps open.  The
#: chunk store touches a handful of files at a time (the master record,
#: the head segment, the segments being read), and a hub serving many
#: tenants multiplies this by its open databases.
MAX_OPEN_FILES = 16


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

    def close(self) -> None:
        """Release any operating-system resources the store holds.

        The store stays usable: a later call acquires what it needs
        again.
        """

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

    ``read``, ``write`` and ``sync`` go through descriptors the store
    keeps open, at most :data:`MAX_OPEN_FILES` of them in LRU order, so
    a read is one ``pread`` rather than an open, seek, read and close.
    A file is opened for writing only by ``write``; ``delete`` and
    ``truncate`` drop the file's descriptor, and :meth:`close` drops
    them all.

    All operations — metadata probes included — run under one lock, so a
    concurrent ``write``/``truncate`` cannot interleave with another
    thread's ``write``, and ``list_files``/``exists``/``size`` observe a
    consistent namespace.  Raw ``OSError`` is translated to
    :class:`StoreError`/:class:`TransientStoreError` at every entry
    point.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        self._lock = threading.Lock()
        #: name -> (descriptor, opened for writing), coldest first
        self._fds: "OrderedDict[str, Tuple[int, bool]]" = OrderedDict()
        with _translating(f"creating store directory {root!r}"):
            self.root = os.path.abspath(root)
            os.makedirs(self.root, exist_ok=True)

    def _path(self, name: str) -> str:
        if not name or "/" in name or os.sep in name or name in (".", ".."):
            raise StoreError(f"invalid untrusted-store file name: {name!r}")
        return os.path.join(self.root, name)

    # -- descriptors (caller holds the lock) --------------------------------

    def _fd(self, name: str, writable: bool) -> int:
        """A held descriptor of ``name``; ``writable`` creates the file.

        Raises :class:`StoreError` when a read-only open finds no file.
        """
        held = self._fds.get(name)
        if held is not None:
            if held[1] or not writable:
                self._fds.move_to_end(name)
                return held[0]
            self._drop(name)
        path = self._path(name)
        if writable:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        else:
            try:
                fd = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                raise StoreError(f"no such file in untrusted store: {name!r}") from None
        self._fds[name] = (fd, writable)
        if len(self._fds) > MAX_OPEN_FILES:
            _, (coldest, _) = self._fds.popitem(last=False)
            os.close(coldest)
        return fd

    def _drop(self, name: str) -> None:
        held = self._fds.pop(name, None)
        if held is not None:
            os.close(held[0])

    def close(self) -> None:
        with self._lock, _translating("closing store descriptors"):
            while self._fds:
                _, (fd, _) = self._fds.popitem()
                os.close(fd)

    def __del__(self) -> None:
        # A store dropped without close() must not leak its descriptors.
        self.close()

    # -- namespace --------------------------------------------------------

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
            self._drop(name)
            os.remove(path)

    # -- data -------------------------------------------------------------

    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        with self._lock, _translating(f"reading {name!r}"):
            fd = self._fd(name, writable=False)
            if length is None:
                length = max(0, os.fstat(fd).st_size - offset)
            # A regular file's pread comes back short only at its end.
            data = os.pread(fd, length, offset)
        self.stats.record_read(len(data))
        return data

    def write(self, name: str, offset: int, data: bytes) -> None:
        with self._lock, _translating(f"writing {name!r}"):
            # Writing past the end leaves a gap that reads back as zeros.
            os.pwrite(self._fd(name, writable=True), data, offset)
        self.stats.record_write(len(data), name, offset)

    def truncate(self, name: str, size: int) -> None:
        path = self._path(name)
        with self._lock, _translating(f"truncating {name!r}"):
            if not os.path.isfile(path):
                raise StoreError(f"no such file in untrusted store: {name!r}")
            self._drop(name)
            os.truncate(path, size)

    def sync(self, name: str) -> None:
        path = self._path(name)
        with self._lock, _translating(f"syncing {name!r}"):
            # A file never written has nothing to flush.
            if name in self._fds or os.path.isfile(path):
                os.fsync(self._fd(name, writable=False))
        self.stats.record_sync()
