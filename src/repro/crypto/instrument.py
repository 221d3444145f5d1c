"""Instrumented wrappers metering the crypto kernels.

The chunk store wraps its payload cipher and hash engine in these
decorators so every whole-payload operation lands in a
:class:`~repro.perf.PerfStats` — calls, plaintext bytes, and wall
nanoseconds per kernel.  The wrappers preserve the wrapped interface
exactly (they *are* a :class:`PayloadCipher` / :class:`HashEngine`), so
every existing call site works unchanged and the AES implementation
stays invisible above the crypto package.
"""

from __future__ import annotations

import time

from repro.crypto.cipher import PayloadCipher
from repro.crypto.hashes import HashEngine
from repro.perf import PerfStats

__all__ = ["InstrumentedPayloadCipher", "InstrumentedHashEngine"]


class InstrumentedPayloadCipher(PayloadCipher):
    """Meter a payload cipher's encrypt/decrypt into a PerfStats."""

    def __init__(self, inner: PayloadCipher, perf: PerfStats) -> None:
        self._inner = inner
        self._perf = perf
        self.name = inner.name
        self._encrypt_kernel = f"cipher.{inner.name}.encrypt"
        self._decrypt_kernel = f"cipher.{inner.name}.decrypt"

    def encrypt(self, plaintext: bytes) -> bytes:
        started = time.perf_counter_ns()
        out = self._inner.encrypt(plaintext)
        self._perf.record_kernel(
            self._encrypt_kernel, len(plaintext), time.perf_counter_ns() - started
        )
        return out

    def decrypt(self, data: bytes) -> bytes:
        started = time.perf_counter_ns()
        out = self._inner.decrypt(data)
        self._perf.record_kernel(
            self._decrypt_kernel, len(data), time.perf_counter_ns() - started
        )
        return out

    def ciphertext_overhead(self, plaintext_length: int) -> int:
        return self._inner.ciphertext_overhead(plaintext_length)


class InstrumentedHashEngine(HashEngine):
    """Meter a hash engine's digests into a PerfStats."""

    def __init__(self, inner: HashEngine, perf: PerfStats) -> None:
        self._inner = inner
        self._perf = perf
        self.name = inner.name
        self.digest_size = inner.digest_size
        self._kernel = f"hash.{inner.name}"

    def digest(self, data: bytes) -> bytes:
        started = time.perf_counter_ns()
        out = self._inner.digest(data)
        self._perf.record_kernel(
            self._kernel, len(data), time.perf_counter_ns() - started
        )
        return out

    def digest_many(self, *parts: bytes) -> bytes:
        started = time.perf_counter_ns()
        out = self._inner.digest_many(*parts)
        self._perf.record_kernel(
            self._kernel,
            sum(len(part) for part in parts),
            time.perf_counter_ns() - started,
        )
        return out
