"""Persistent dynamic hash table (Larson linear hashing, paper ref [20]).

The table grows one bucket at a time: a *split pointer* sweeps across the
buckets of the current level; when the load factor exceeds its maximum
(:data:`HASH_MAX_LOAD` by default), the bucket at the split pointer is split by rehashing its
entries under the next level's address function.  There is no big-bang
rehash, which is why the paper picks it for an embedded store.

Addressing: with ``N`` initial buckets at level ``L``, a key hashing to
``h`` lives in bucket ``h mod N*2^L``, unless that bucket is behind the
split pointer, in which case ``h mod N*2^(L+1)`` applies.

Buckets overflow into chained bucket objects.  Exact-match and scan
queries are supported; range queries are not (use a B+tree index).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.collectionstore.keys import compare_keys, decode_key, encode_key, hash_key
from repro.errors import CollectionStoreError, DuplicateKeyError
from repro.objectstore.encoding import BufferReader, BufferWriter
from repro.objectstore.persistent import Persistent

__all__ = ["HashDirectory", "HashBucket", "HashIndex"]


class HashDirectory(Persistent):
    """Root object of one hash index: addressing state + bucket ids."""

    class_id = "tdb.hash.dir"

    def __init__(self, initial_buckets: int = 8) -> None:
        self.initial_buckets = initial_buckets
        self.level = 0
        self.split_pointer = 0
        self.bucket_oids: List[int] = []
        self.entry_count = 0

    def pickle(self) -> bytes:
        writer = BufferWriter()
        writer.write_uint(self.initial_buckets)
        writer.write_uint(self.level)
        writer.write_uint(self.split_pointer)
        writer.write_uint_list(self.bucket_oids)
        writer.write_uint(self.entry_count)
        return writer.getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "HashDirectory":
        reader = BufferReader(data)
        directory = cls(reader.read_uint())
        directory.level = reader.read_uint()
        directory.split_pointer = reader.read_uint()
        directory.bucket_oids = reader.read_uint_list()
        directory.entry_count = reader.read_uint()
        reader.expect_end()
        return directory

    def cache_charge(self) -> int:
        return 128 + 16 * len(self.bucket_oids)


class HashBucket(Persistent):
    """One bucket: (key, oid) entries plus an optional overflow chain."""

    class_id = "tdb.hash.bucket"

    def __init__(self) -> None:
        self.entries: List[Tuple[object, int]] = []
        self.overflow: Optional[int] = None

    def pickle(self) -> bytes:
        writer = BufferWriter()
        writer.write_list(
            self.entries,
            lambda w, entry: (
                w.write_bytes(encode_key(entry[0])),
                w.write_uint(entry[1]),
            ),
        )
        writer.write_optional_uint(self.overflow)
        return writer.getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "HashBucket":
        reader = BufferReader(data)
        bucket = cls()
        bucket.entries = reader.read_list(
            lambda r: (decode_key(r.read_bytes()), r.read_uint())
        )
        bucket.overflow = reader.read_optional_uint()
        reader.expect_end()
        return bucket

    def cache_charge(self) -> int:
        return 96 + 64 * len(self.entries)


#: Mean entries per bucket above which the table splits a bucket.
HASH_MAX_LOAD = 2.0


class HashIndex:
    """Operations on one linear-hashing table, bound to a transaction."""

    def __init__(
        self,
        txn,
        root_oid: int,
        initial_buckets: int = 8,
        max_load: float = HASH_MAX_LOAD,
        bucket_capacity: int = 16,
    ) -> None:
        self.txn = txn
        self.root_oid = root_oid
        self.max_load = max_load
        self.bucket_capacity = bucket_capacity

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, txn, initial_buckets: int = 8) -> int:
        """Create an empty table; return the directory's object id."""
        if initial_buckets < 1:
            raise CollectionStoreError("hash index needs at least one bucket")
        directory = HashDirectory(initial_buckets)
        directory.bucket_oids = [
            txn.insert(HashBucket()) for _ in range(initial_buckets)
        ]
        return txn.insert(directory)

    def destroy(self) -> None:
        directory = self._read_dir()
        for bucket_oid in directory.bucket_oids:
            oid: Optional[int] = bucket_oid
            while oid is not None:
                bucket = self.txn.open_readonly(oid, HashBucket).deref()
                self.txn.remove(oid)
                oid = bucket.overflow
        self.txn.remove(self.root_oid)

    # -- plumbing ------------------------------------------------------------------

    def _read_dir(self) -> HashDirectory:
        return self.txn.open_readonly(self.root_oid, HashDirectory).deref()

    def _write_dir(self) -> HashDirectory:
        return self.txn.open_writable(self.root_oid, HashDirectory).deref()

    @staticmethod
    def _address(directory: HashDirectory, key: object) -> int:
        h = hash_key(key)
        modulus = directory.initial_buckets * (2 ** directory.level)
        slot = h % modulus
        if slot < directory.split_pointer:
            slot = h % (modulus * 2)
        return slot

    def _chain(self, head_oid: int) -> Iterator[Tuple[int, HashBucket]]:
        oid: Optional[int] = head_oid
        while oid is not None:
            bucket = self.txn.open_readonly(oid, HashBucket).deref()
            yield oid, bucket
            oid = bucket.overflow

    # -- queries ----------------------------------------------------------------------

    def lookup(self, key: object) -> List[int]:
        directory = self._read_dir()
        head = directory.bucket_oids[self._address(directory, key)]
        found = []
        for _oid, bucket in self._chain(head):
            for entry_key, oid in bucket.entries:
                if compare_keys(entry_key, key) == 0:
                    found.append(oid)
        return found

    def scan(self) -> Iterator[Tuple[object, int]]:
        """Yield every (key, oid); hash order, not key order."""
        directory = self._read_dir()
        for head in list(directory.bucket_oids):
            for _oid, bucket in self._chain(head):
                yield from list(bucket.entries)

    # -- updates --------------------------------------------------------------------------

    def insert(self, key: object, oid: int, unique: bool) -> None:
        directory = self._read_dir()
        if unique and self.lookup(key):
            raise DuplicateKeyError(
                f"duplicate key {key!r} in unique index", key=key
            )
        head = directory.bucket_oids[self._address(directory, key)]
        target_oid = None
        last_oid = None
        for bucket_oid, bucket in self._chain(head):
            last_oid = bucket_oid
            if len(bucket.entries) < self.bucket_capacity:
                target_oid = bucket_oid
                break
        if target_oid is None:
            overflow_oid = self.txn.insert(HashBucket())
            tail = self.txn.open_writable(last_oid, HashBucket).deref()
            tail.overflow = overflow_oid
            target_oid = overflow_oid
        bucket = self.txn.open_writable(target_oid, HashBucket).deref()
        bucket.entries.append((key, oid))
        directory = self._write_dir()
        directory.entry_count += 1
        if directory.entry_count / len(directory.bucket_oids) > self.max_load:
            self._split(directory)

    def remove(self, key: object, oid: int) -> bool:
        directory = self._read_dir()
        head = directory.bucket_oids[self._address(directory, key)]
        for bucket_oid, bucket in self._chain(head):
            for index, (entry_key, entry_oid) in enumerate(bucket.entries):
                if entry_oid == oid and compare_keys(entry_key, key) == 0:
                    writable = self.txn.open_writable(bucket_oid, HashBucket).deref()
                    del writable.entries[index]
                    self._write_dir().entry_count -= 1
                    return True
        return False

    # -- growth -----------------------------------------------------------------------------

    def _split(self, directory: HashDirectory) -> None:
        """Split the bucket at the split pointer (one step of growth)."""
        victim_slot = directory.split_pointer
        modulus = directory.initial_buckets * (2 ** directory.level)
        image_slot = victim_slot + modulus

        # Collect every entry of the victim chain, then rewrite the chain
        # as a single bucket and distribute under the doubled modulus.
        entries: List[Tuple[object, int]] = []
        chain_oids = []
        for bucket_oid, bucket in self._chain(directory.bucket_oids[victim_slot]):
            chain_oids.append(bucket_oid)
            entries.extend(bucket.entries)
        head = self.txn.open_writable(chain_oids[0], HashBucket).deref()
        head.entries = []
        head.overflow = None
        for extra_oid in chain_oids[1:]:
            self.txn.remove(extra_oid)

        image_head = self.txn.insert(HashBucket())
        directory.bucket_oids.append(image_head)
        if len(directory.bucket_oids) != image_slot + 1:
            raise CollectionStoreError(
                "hash directory grew out of order during split"
            )
        directory.split_pointer += 1
        if directory.split_pointer == modulus:
            directory.split_pointer = 0
            directory.level += 1
        directory.entry_count -= len(entries)
        for key, oid in entries:
            self._insert_without_split(directory, key, oid)

    def _insert_without_split(
        self, directory: HashDirectory, key: object, oid: int
    ) -> None:
        """Re-insert during a split (no load check, no recursion)."""
        head = directory.bucket_oids[self._address(directory, key)]
        target_oid = None
        last_oid = None
        for bucket_oid, bucket in self._chain(head):
            last_oid = bucket_oid
            if len(bucket.entries) < self.bucket_capacity:
                target_oid = bucket_oid
                break
        if target_oid is None:
            overflow_oid = self.txn.insert(HashBucket())
            tail = self.txn.open_writable(last_oid, HashBucket).deref()
            tail.overflow = overflow_oid
            target_oid = overflow_oid
        bucket = self.txn.open_writable(target_oid, HashBucket).deref()
        bucket.entries.append((key, oid))
        directory.entry_count += 1
