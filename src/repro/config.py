"""Configuration objects for the TDB stack.

The paper stresses that TDB is *modular*: functionality (security, backup,
collections) can be traded for footprint and speed.  We express the same
knobs as small dataclasses that each layer receives at construction time.

Defaults follow the paper's evaluation setup: 60% maximum database
utilization, a 4 MB cache, SHA-1 hashing and a block cipher for the secure
profile (the paper used 3DES; see ``DESIGN.md`` for the substitution notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cipher import CIPHER_KEY_SIZES
from repro.crypto.native import HAVE_NATIVE_BACKEND
from repro.errors import ConfigError

__all__ = [
    "SecurityProfile",
    "ChunkStoreConfig",
    "ObjectStoreConfig",
    "CollectionStoreConfig",
    "BaselineConfig",
]


@dataclass(frozen=True)
class SecurityProfile:
    """Selects the cryptographic machinery of the chunk store.

    ``hash_name``
        ``"sha1"`` (hashlib-accelerated), ``"sha1-pure"`` (this repo's
        from-scratch implementation) or ``"sha256"``.
    ``cipher_name``
        ``"aes-128"``, ``"aes-256"``, ``"3des"``, ``"des"`` or ``"null"``
        (no encryption; still padded framing so record layout is identical).
    ``enabled``
        When false the store runs in the paper's plain **TDB** mode: no
        hashing, no encryption, no one-way-counter bump per commit.  When
        true it runs as **TDB-S**.

    The AES implementation is not a setting: the platform picks it
    (:func:`~repro.crypto.native.best_aes`), and every choice writes
    the same bytes.
    """

    enabled: bool = True
    hash_name: str = "sha1"
    cipher_name: str = "aes-128"

    #: Hash engine names accepted by ``hash_name``.
    HASH_NAMES = ("sha1", "sha1-pure", "sha256")

    def __post_init__(self) -> None:
        if self.cipher_name != "null" and self.cipher_name not in CIPHER_KEY_SIZES:
            raise ConfigError(
                f"unknown cipher: {self.cipher_name!r} "
                f"(valid: null, {', '.join(CIPHER_KEY_SIZES)})"
            )
        if self.hash_name not in self.HASH_NAMES:
            raise ConfigError(
                f"unknown hash engine: {self.hash_name!r} "
                f"(valid: {', '.join(self.HASH_NAMES)})"
            )

    @property
    def resolved_kernel(self) -> str:
        """Which AES runs: ``"native"`` (OpenSSL) or ``"fast"`` (tables)."""
        return "native" if HAVE_NATIVE_BACKEND else "fast"

    @classmethod
    def insecure(cls) -> "SecurityProfile":
        """Profile for plain TDB (no tamper detection, no secrecy)."""
        return cls(enabled=False, hash_name="sha1", cipher_name="null")


@dataclass(frozen=True)
class ChunkStoreConfig:
    """Tuning knobs of the log-structured chunk store.

    ``segment_size``
        Bytes per log segment file.  Small relative to real systems so the
        cleaner is exercised by modest workloads.
    ``max_utilization``
        Maximum fraction of segment space occupied by live chunks before
        the store grows instead of cleaning harder (paper section 3.2.1;
        the default 0.6 is the paper's default).
    ``checkpoint_residual_bytes``
        Checkpoint the location map once the residual log exceeds this many
        bytes; recovery replays at most this much log.
    ``map_fanout``
        Children per location-map node (the map is a radix tree over chunk
        ids; it doubles as the Merkle tree).
    ``map_cache_entries``
        Maximum number of map nodes cached in memory; the cache budget is
        shared with the object cache in the full stack.
    ``cleaner_segments_per_pass``
        How many victim segments one cleaning pass may process, bounding
        per-commit cleaning latency.
    ``initial_segments``
        Segments allocated when a fresh store is formatted.
    ``fsync``
        Whether durable commits flush through the OS cache (the paper opens
        log files with WRITE_THROUGH).
    """

    segment_size: int = 64 * 1024
    max_utilization: float = 0.6
    checkpoint_residual_bytes: int = 256 * 1024
    map_fanout: int = 64
    map_cache_entries: int = 1024
    cleaner_segments_per_pass: int = 4
    initial_segments: int = 4
    fsync: bool = False
    security: SecurityProfile = field(default_factory=SecurityProfile)

    def __post_init__(self) -> None:
        if self.segment_size < 4096:
            raise ValueError("segment_size must be at least 4096 bytes")
        if not 0.1 <= self.max_utilization <= 0.95:
            raise ValueError("max_utilization must lie in [0.1, 0.95]")
        if self.map_fanout < 2:
            raise ValueError("map_fanout must be at least 2")
        if self.initial_segments < 2:
            raise ValueError("initial_segments must be at least 2")


@dataclass(frozen=True)
class ObjectStoreConfig:
    """Tuning knobs of the object store.

    ``cache_bytes``
        Budget of the shared LRU cache (objects + map entries).  The
        paper's evaluation used 4 MB.
    ``locking``
        Transactional locking can be switched off for single-threaded
        embeddings (paper section 4.2.3).
    ``lock_timeout``
        Seconds a transaction waits for an object lock before a
        :class:`~repro.errors.LockTimeoutError` breaks the potential
        deadlock.
    """

    cache_bytes: int = 4 * 1024 * 1024
    locking: bool = True
    lock_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.cache_bytes < 4096:
            raise ValueError("cache_bytes must be at least 4096")
        if self.lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")


@dataclass(frozen=True)
class CollectionStoreConfig:
    """Tuning knobs of the collection store index implementations."""

    btree_order: int = 32
    hash_initial_buckets: int = 8
    hash_max_load: float = 2.0
    list_node_capacity: int = 64

    def __post_init__(self) -> None:
        if self.btree_order < 4:
            raise ValueError("btree_order must be at least 4")
        if self.hash_initial_buckets < 1:
            raise ValueError("hash_initial_buckets must be at least 1")
        if self.hash_max_load <= 0:
            raise ValueError("hash_max_load must be positive")
        if self.list_node_capacity < 1:
            raise ValueError("list_node_capacity must be at least 1")


@dataclass(frozen=True)
class BaselineConfig:
    """Tuning knobs of the Berkeley-DB-style baseline engine."""

    page_size: int = 4096
    cache_bytes: int = 4 * 1024 * 1024
    btree_min_keys: int = 4
    fsync: bool = False
    checkpoint_log: bool = False  # BDB's TPC-B run never checkpoints (fig 11b)

    def __post_init__(self) -> None:
        if self.page_size < 512:
            raise ValueError("page_size must be at least 512")
        if self.cache_bytes < self.page_size:
            raise ValueError("cache_bytes must hold at least one page")
