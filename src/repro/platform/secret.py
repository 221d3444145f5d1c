"""The secret store: a small trusted store holding the database key.

On a consumer device the paper expects this to live in ROM or in
battery-backed SRAM that zeroes itself on physical tampering.  Programs
that can read the secret store are *authorized*; everything the database
persists outside it is protected by keys derived from this secret.
"""

from __future__ import annotations

import hmac
import hashlib
import os
from abc import ABC, abstractmethod

from repro.errors import StoreError

__all__ = ["SecretStore", "MemorySecretStore", "FileSecretStore"]

_MIN_SECRET_BYTES = 16


class SecretStore(ABC):
    """Abstract read-only store of the master secret."""

    @abstractmethod
    def read_secret(self) -> bytes:
        """Return the master secret (at least 16 bytes)."""

    def derive_key(self, purpose: str, length: int) -> bytes:
        """Derive a ``purpose``-specific key from the master secret.

        Separate keys for encryption, MACs and backups are derived with
        HMAC-SHA-256 in counter mode so that a leak of one derived key
        does not expose the others.
        """
        if length <= 0:
            raise ValueError("key length must be positive")
        secret = self.read_secret()
        blocks = []
        counter = 0
        while sum(len(block) for block in blocks) < length:
            message = purpose.encode("utf-8") + b"\x00" + counter.to_bytes(4, "big")
            blocks.append(hmac.new(secret, message, hashlib.sha256).digest())
            counter += 1
        return b"".join(blocks)[:length]


class MemorySecretStore(SecretStore):
    """Secret held in process memory (models ROM on the device)."""

    def __init__(self, secret: bytes) -> None:
        if len(secret) < _MIN_SECRET_BYTES:
            raise StoreError(
                f"secret must be at least {_MIN_SECRET_BYTES} bytes, got {len(secret)}"
            )
        self._secret = bytes(secret)

    @classmethod
    def generate(cls) -> "MemorySecretStore":
        """Create a store around a fresh random 32-byte secret."""
        return cls(os.urandom(32))

    def read_secret(self) -> bytes:
        return self._secret


class FileSecretStore(SecretStore):
    """Secret held in a file outside the untrusted store.

    This models firmware-resident secrets for the file-backed deployments
    used by the benchmarks; the file must *not* live inside the untrusted
    store's directory (that would hand the key to the attacker).
    """

    def __init__(self, path: str, create: bool = False) -> None:
        self.path = os.path.abspath(path)
        if create and not os.path.exists(self.path):
            # Durable before any commit it keys: data that survives a
            # crash without its key cannot be read.
            with open(self.path, "wb") as handle:
                handle.write(os.urandom(32))
                handle.flush()
                os.fchmod(handle.fileno(), 0o600)
                os.fsync(handle.fileno())
            directory = os.open(os.path.dirname(self.path), os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        if not os.path.isfile(self.path):
            raise StoreError(f"secret store file missing: {self.path}")

    def read_secret(self) -> bytes:
        with open(self.path, "rb") as handle:
            secret = handle.read()
        if len(secret) < _MIN_SECRET_BYTES:
            raise StoreError("secret store file is too short to be a key")
        return secret
