"""Transient-fault-tolerant wrapper around an untrusted store.

The paper's target devices store the database on consumer media —
removable flash, cheap disks — where I/O faults are often *transient*:
the same read succeeds a moment later.  :class:`ResilientUntrustedStore`
wraps any :class:`~repro.platform.untrusted.UntrustedStore` and retries
operations that fail with :class:`~repro.errors.TransientStoreError`
(or an ``OSError`` whose errno classifies as transient) under a bounded,
*deterministic* exponential-backoff schedule.

Determinism matters because the fault-injection sweeps replay thousands
of scenarios and must produce identical traces on every run: the jitter
is derived from a CRC32 hash of ``(seed, op_id, attempt)`` rather than a
random source, and the sleep function is injectable (the test suite
passes a recording no-op).
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import TransientStoreError
from repro.platform.untrusted import UntrustedStore, classify_os_error

__all__ = ["RetryPolicy", "ResilientUntrustedStore"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential-backoff schedule for transient faults.

    Attempt *n* (1-based) that fails sleeps for::

        min(max_delay, base_delay * multiplier ** (n - 1)) * (1 + j)

    where ``j`` is a deterministic pseudo-jitter in ``[0, jitter]``
    computed from ``(seed, op_id, attempt)`` — no global random state,
    so a replayed sweep observes byte-identical delay sequences.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int, op_id: int = 0) -> float:
        """Backoff delay after the given failed attempt (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        capped = min(self.max_delay, raw)
        if self.jitter == 0.0:
            return capped
        digest = zlib.crc32(struct.pack(">qqq", self.seed, op_id, attempt))
        fraction = (digest & 0xFFFF) / 0xFFFF
        return capped * (1.0 + self.jitter * fraction)

    def schedule(self, op_id: int = 0) -> List[float]:
        """The full delay sequence for one operation (len = max_attempts - 1)."""
        return [self.delay(n, op_id) for n in range(1, self.max_attempts)]


class ResilientUntrustedStore(UntrustedStore):
    """Retries transient faults of an inner store with bounded backoff.

    Permanent :class:`~repro.errors.StoreError` failures propagate
    immediately; :class:`~repro.errors.TransientStoreError` (and raw
    ``OSError`` with a transient errno, in case a foreign store
    implementation leaks one) is retried up to
    ``policy.max_attempts`` times.  Absorbed faults are counted in
    ``stats.transient_retries``; exhausted operations bump
    ``stats.transient_giveups`` and re-raise the last transient error.

    The wrapper exposes the *inner* store's ``stats`` object so existing
    benchmark accounting keeps seeing every byte that actually moved,
    including the retried attempts.
    """

    def __init__(
        self,
        inner: UntrustedStore,
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._op_counter = 0
        # Share the inner store's counters so retry accounting and byte
        # accounting land in one place.
        self.stats = inner.stats

    # -- retry core --------------------------------------------------------

    def _run(self, context: str, operation: Callable[[], object]) -> object:
        self._op_counter += 1
        op_id = self._op_counter
        attempt = 0
        while True:
            attempt += 1
            try:
                return operation()
            except TransientStoreError as exc:
                fault = exc
            except OSError as exc:
                classified = classify_os_error(exc, context)
                if not isinstance(classified, TransientStoreError):
                    raise classified from exc
                fault = classified
            if attempt >= self.policy.max_attempts:
                self.stats.record_giveup()
                raise fault
            self.stats.record_retry()
            self._sleep(self.policy.delay(attempt, op_id))

    # -- namespace ---------------------------------------------------------

    def list_files(self) -> List[str]:
        return self._run("list_files", self.inner.list_files)

    def exists(self, name: str) -> bool:
        return self._run(f"exists({name!r})", lambda: self.inner.exists(name))

    def size(self, name: str) -> int:
        return self._run(f"size({name!r})", lambda: self.inner.size(name))

    def delete(self, name: str) -> None:
        self._run(f"delete({name!r})", lambda: self.inner.delete(name))

    # -- data --------------------------------------------------------------

    def read(self, name: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        return self._run(
            f"read({name!r})", lambda: self.inner.read(name, offset, length)
        )

    def write(self, name: str, offset: int, data: bytes) -> None:
        self._run(f"write({name!r})", lambda: self.inner.write(name, offset, data))

    def truncate(self, name: str, size: int) -> None:
        self._run(f"truncate({name!r})", lambda: self.inner.truncate(name, size))

    def sync(self, name: str) -> None:
        self._run(f"sync({name!r})", lambda: self.inner.sync(name))

    def close(self) -> None:
        self.inner.close()
