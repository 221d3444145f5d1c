"""Per-kernel timings for the crypto/hashing hot path.

The I/O layer already meters traffic (:mod:`repro.platform.iostats`);
this module does the same for CPU: every cipher and hash kernel the
chunk store drives is wrapped so its calls, bytes, and nanoseconds are
tallied per kernel name.  The table surfaces as ``PerfStats.as_dict``
and, nested as ``io.perf``, in the owning store's ``IOStats.as_dict``
and the server's ``stats`` verb — so a benchmark or a live operator can
see exactly where crypto time goes.

The live object is shared across the server's session threads and is
locked accordingly.  Instrumentation costs one lock acquisition per
whole-payload operation (not per block), which is noise next to the
kernels themselves.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["KernelCounter", "PerfStats"]


class KernelCounter:
    """Calls / bytes / nanoseconds of one named kernel."""

    __slots__ = ("calls", "nbytes", "ns")

    def __init__(self) -> None:
        self.calls = 0
        self.nbytes = 0
        self.ns = 0

    @property
    def mb_per_s(self) -> float:
        if not self.ns:
            return 0.0
        return (self.nbytes / (1024 * 1024)) / (self.ns / 1e9)

    def as_dict(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "bytes": self.nbytes,
            "ns": self.ns,
            "mb_per_s": round(self.mb_per_s, 3),
        }


class PerfStats:
    """The per-kernel table of crypto work (``cipher.*`` and ``hash.*``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: Dict[str, KernelCounter] = {}

    def record_kernel(self, name: str, nbytes: int, ns: int) -> None:
        with self._lock:
            counter = self._kernels.get(name)
            if counter is None:
                counter = self._kernels[name] = KernelCounter()
            counter.calls += 1
            counter.nbytes += nbytes
            counter.ns += ns

    def as_dict(self) -> Dict[str, object]:
        """JSON-able view (nested under ``io.perf`` in the stats verb)."""
        with self._lock:
            return {
                "kernels": {
                    name: counter.as_dict()
                    for name, counter in sorted(self._kernels.items())
                },
            }
