"""Hash engines for the Merkle tree.

The chunk store hashes every chunk state and every location-map node; the
root digest is what the master record authenticates.  Engines are pluggable
so the paper's SHA-1 profile, a from-scratch SHA-1 and SHA-256 can be
compared by the ablation benches.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

from repro.crypto.sha1 import Sha1

__all__ = ["HashEngine", "HashlibEngine", "PureSha1Engine", "create_hash_engine"]


class HashEngine(ABC):
    """A one-way hash: name, digest size, one-shot digest."""

    name: str
    digest_size: int

    @abstractmethod
    def digest(self, data: bytes) -> bytes:
        """Return the digest of ``data``."""

    def digest_many(self, *parts: bytes) -> bytes:
        """Digest the concatenation of ``parts`` (Merkle node hashing)."""
        return self.digest(b"".join(parts))


class HashlibEngine(HashEngine):
    """Engine backed by :mod:`hashlib` (SHA-1 by default, as in TDB-S)."""

    def __init__(self, algorithm: str = "sha1") -> None:
        probe = hashlib.new(algorithm)
        self.name = algorithm
        self.digest_size = probe.digest_size
        self._new = getattr(hashlib, algorithm, lambda data=b"": hashlib.new(algorithm, data))

    def digest(self, data: bytes) -> bytes:
        return self._new(data).digest()

    def digest_many(self, *parts: bytes) -> bytes:
        # Feed parts incrementally instead of joining: Merkle-node
        # hashing over many children avoids one large copy per digest.
        state = self._new()
        for part in parts:
            state.update(part)
        return state.digest()


class PureSha1Engine(HashEngine):
    """Engine backed by this repo's from-scratch SHA-1."""

    name = "sha1-pure"
    digest_size = 20

    def digest(self, data: bytes) -> bytes:
        return Sha1(data).digest()


def create_hash_engine(name: str) -> HashEngine:
    """Build a hash engine from a profile name.

    ``"sha1"`` / ``"sha256"`` use :mod:`hashlib`; ``"sha1-pure"`` uses the
    from-scratch implementation.
    """
    if name == "sha1-pure":
        return PureSha1Engine()
    if name in ("sha1", "sha256"):
        return HashlibEngine(name)
    raise ValueError(f"unknown hash engine: {name!r}")
