"""Property-based testing of insensitive iterators (paper section 5.2).

A random operation stream interleaves handle inserts with iterator
reads, writes, and deletes *while an iterator is open*, and checks the
store against a pure-Python model:

* **insensitivity** — the iterator observes exactly the objects its
  query captured at open time; objects inserted mid-iteration never
  appear under the cursor,
* **deferred index maintenance** — index lookups keep returning
  pre-update keys until the iterator closes (so inserting a key that a
  pending write is about to vacate still raises ``DuplicateKeyError``),
* **deferred uniqueness resolution** — when pending writes collide on
  the unique key index at close, exactly the violators predicted by the
  model (two-phase apply, oid order) are removed and reported via
  ``IndexIntegrityError.removed_object_ids``,
* after every close the collection, both indexes, and the object count
  agree with the model.

The interpreter core is hypothesis-free; a seeded random driver always
runs, and a hypothesis wrapper shrinks failing op streams when the
library is available.
"""

from __future__ import annotations

import random

import pytest

from repro.chunkstore import ChunkStore
from repro.collectionstore import CollectionStore, Indexer
from repro.config import (
    ChunkStoreConfig,
    CollectionStoreConfig,
    ObjectStoreConfig,
    SecurityProfile,
)
from repro.errors import DuplicateKeyError, IndexIntegrityError
from repro.objectstore import (
    BufferReader,
    BufferWriter,
    ClassRegistry,
    ObjectStore,
    Persistent,
)
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

SECRET = b"iterator-property-secret-0123456"
KEYS = 12       # small domains provoke unique-key collisions
RANKS = 5


class Doc(Persistent):
    class_id = "iterprops.doc"

    def __init__(self, key=0, rank=0):
        self.key = key
        self.rank = rank

    def pickle(self) -> bytes:
        return BufferWriter().write_int(self.key).write_int(self.rank).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Doc":
        reader = BufferReader(data)
        return cls(reader.read_int(), reader.read_int())


def key_indexer():
    return Indexer("by-key", Doc, lambda d: d.key, unique=True, kind="hash")


def rank_indexer():
    return Indexer("by-rank", Doc, lambda d: d.rank, unique=False, kind="btree")


class IteratorSession:
    """Interprets an op stream against the store and a pure-Python model.

    Ops (plain tuples, so hypothesis can generate and shrink them):

    * ``("insert", key, rank)`` — handle insert (also legal mid-iteration)
    * ``("open", kind, a, b)`` — open an iterator: kind 0 = full rank
      scan, 1 = key match on ``a``, 2 = rank range ``[a, b]``
    * ``("step", do_write, new_key, new_rank, do_delete)`` — observe the
      current object, optionally update it and/or delete it, advance
    * ``("close",)`` — close the iterator, apply deferred maintenance,
      then validate the whole collection against the model
    """

    def __init__(self):
        registry = ClassRegistry()
        registry.register(Doc)
        chunk_store = ChunkStore.format(
            MemoryUntrustedStore(),
            MemorySecretStore(SECRET),
            MemoryOneWayCounter(),
            ChunkStoreConfig(
                segment_size=16 * 1024,
                initial_segments=4,
                checkpoint_residual_bytes=64 * 1024,
                map_fanout=16,
                security=SecurityProfile.insecure(),
            ),
        )
        object_store = ObjectStore.create(
            chunk_store, ObjectStoreConfig(locking=False), registry
        )
        self.store = CollectionStore(
            object_store,
            CollectionStoreConfig(btree_order=4, list_node_capacity=4),
        )
        ct = self.store.transaction()
        handle = ct.create_collection("docs", key_indexer())
        handle.create_index(rank_indexer())
        ct.commit()

        self.model = {}        # oid -> [key, rank], committed + applied
        self.index_keys = {}   # key -> oid, what the UNIQUE INDEX holds
                               # (lags self.model changes until close)
        # open-iterator state
        self.ct = None
        self.handle = None
        self.iterator = None
        self.expected_oids = None
        self.observed = None
        self.inserted_while_open = None
        self.pending_writes = None   # oid -> (pre_key, post_key, post_rank)
        self.pending_deletes = None  # oid -> pre_key

    # -- ops ----------------------------------------------------------------

    def run(self, ops):
        try:
            for op in ops:
                getattr(self, "op_" + op[0])(*op[1:])
            if self.iterator is not None:
                self.op_close()
        finally:
            self.store.close()

    def op_insert(self, key, rank):
        if self.iterator is None:
            ct = self.store.transaction()
            handle = ct.write_collection("docs")
        else:
            handle = self.handle
        expect_duplicate = key in self.index_keys
        try:
            oid = handle.insert(Doc(key, rank))
        except DuplicateKeyError:
            assert expect_duplicate, (
                f"insert({key}) raised DuplicateKeyError but the unique "
                f"index holds {sorted(self.index_keys)}"
            )
            if self.iterator is None:
                ct.abort()
            return
        assert not expect_duplicate, (
            f"insert({key}) succeeded but {key} is already in the index"
        )
        self.model[oid] = [key, rank]
        self.index_keys[key] = oid
        if self.iterator is None:
            ct.commit()
        else:
            self.inserted_while_open.add(oid)

    def op_open(self, kind, a, b):
        if self.iterator is not None:
            return
        self.ct = self.store.transaction()
        self.handle = self.ct.write_collection("docs")
        if kind == 1:
            self.iterator = self.handle.query_match(key_indexer(), a % KEYS)
            self.expected_oids = {
                oid for oid, (key, _r) in self.model.items() if key == a % KEYS
            }
        elif kind == 2:
            low, high = sorted((a % RANKS, b % RANKS))
            self.iterator = self.handle.query_range(rank_indexer(), low, high)
            self.expected_oids = {
                oid
                for oid, (_k, rank) in self.model.items()
                if low <= rank <= high
            }
        else:
            self.iterator = self.handle.query(rank_indexer())
            self.expected_oids = set(self.model)
        self.observed = []
        self.inserted_while_open = set()
        self.pending_writes = {}
        self.pending_deletes = {}

    def op_step(self, do_write, new_key, new_rank, do_delete):
        if self.iterator is None or self.iterator.end():
            return
        oid = self.iterator._oids[self.iterator._position]
        item = self.iterator.read()
        # Each oid appears once in a captured result set, so the
        # cursor must show this object's pre-open committed state.
        assert (item.key, item.rank) == tuple(self.model[oid]), (
            f"cursor shows ({item.key}, {item.rank}) for oid {oid}, "
            f"model holds {self.model[oid]}"
        )
        self.observed.append(oid)
        if do_write:
            ref = self.iterator.write()
            if oid not in self.pending_writes:
                pre_key = self.model[oid][0]
            else:
                pre_key = self.pending_writes[oid][0]
            ref.key = new_key % KEYS
            ref.rank = new_rank % RANKS
            self.pending_writes[oid] = (pre_key, new_key % KEYS, new_rank % RANKS)
        if do_delete:
            self.iterator.delete()
            if oid in self.pending_writes:
                pre_key = self.pending_writes.pop(oid)[0]
            else:
                pre_key = self.model[oid][0]
            self.pending_deletes[oid] = pre_key
        self.iterator.next()

    def op_close(self):
        if self.iterator is None:
            return
        expected_violators = self._apply_deferred_to_model()
        try:
            self.iterator.close()
        except IndexIntegrityError as exc:
            assert sorted(exc.removed_object_ids) == expected_violators, (
                f"violators {sorted(exc.removed_object_ids)} != "
                f"model prediction {expected_violators}"
            )
        else:
            assert expected_violators == [], (
                f"model predicted violators {expected_violators} but close "
                "raised nothing"
            )
        self.ct.commit()
        self._check_insensitivity()
        self.iterator = self.ct = self.handle = None
        self.validate()

    # -- model bookkeeping --------------------------------------------------

    def _apply_deferred_to_model(self):
        """Mirror CollectionHandle._apply_deferred exactly; return violators."""
        for oid in sorted(self.pending_deletes):
            pre_key = self.pending_deletes[oid]
            if self.index_keys.get(pre_key) == oid:
                del self.index_keys[pre_key]
            del self.model[oid]
        # Phase 1: every changed stale entry leaves the unique index.
        changed = {
            oid: (pre, post, rank)
            for oid, (pre, post, rank) in sorted(self.pending_writes.items())
            if pre != post
        }
        for oid, (pre, _post, _rank) in changed.items():
            if self.index_keys.get(pre) == oid:
                del self.index_keys[pre]
        # Phase 2, oid order: re-insert with uniqueness checks.
        violators = []
        for oid in sorted(changed):
            _pre, post, _rank = changed[oid]
            if post in self.index_keys:
                violators.append(oid)
                del self.model[oid]
            else:
                self.index_keys[post] = oid
        # Apply the surviving writes' values to the model.
        for oid, (_pre, post, rank) in self.pending_writes.items():
            if oid in self.model:
                self.model[oid] = [post, rank]
        return violators

    def _check_insensitivity(self):
        observed = set(self.observed)
        assert observed <= self.expected_oids, (
            "iterator observed objects outside its captured result set"
        )
        assert not (observed & self.inserted_while_open), (
            "iterator observed an object inserted after it was opened"
        )

    # -- global invariant ---------------------------------------------------

    def validate(self):
        ct = self.store.transaction()
        handle = ct.read_collection("docs")
        assert handle.count == len(self.model)
        for oid, (key, rank) in self.model.items():
            with handle.query_match(key_indexer(), key) as it:
                assert not it.end(), f"key {key} vanished from the hash index"
                got = it.read()
                assert (got.key, got.rank) == (key, rank)
        with handle.query(rank_indexer()) as it:
            seen = []
            while not it.end():
                doc = it.read()
                seen.append((doc.key, doc.rank))
                it.next()
        assert sorted(seen) == sorted(
            (key, rank) for key, rank in self.model.values()
        )
        ranks = [rank for _k, rank in seen]
        assert ranks == sorted(ranks), "btree scan is not rank-ordered"
        ct.abort()


def random_ops(rng: random.Random, count: int):
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.30:
            ops.append(("insert", rng.randrange(KEYS), rng.randrange(RANKS)))
        elif roll < 0.45:
            ops.append(
                ("open", rng.randrange(3), rng.randrange(KEYS),
                 rng.randrange(KEYS))
            )
        elif roll < 0.85:
            ops.append(
                ("step", rng.random() < 0.5, rng.randrange(KEYS),
                 rng.randrange(RANKS), rng.random() < 0.25)
            )
        else:
            ops.append(("close",))
    return ops


@pytest.mark.parametrize("seed", range(10))
def test_seeded_random_iterator_sessions(seed):
    rng = random.Random(0xC0FFEE + seed)
    IteratorSession().run(random_ops(rng, 120))


def test_directed_unique_collision_at_close():
    """Two pending writes fight for one key: lower oid wins, higher is
    removed and reported."""
    session = IteratorSession()
    session.run([
        ("insert", 1, 0),
        ("insert", 2, 1),
        ("insert", 3, 2),
        ("open", 0, 0, 0),           # full scan: oids for keys 1, 2, 3
        ("step", True, 7, 0, False),  # key 1 -> 7
        ("step", True, 7, 1, False),  # key 2 -> 7 as well: collision
        ("step", False, 0, 0, False),
        ("close",),
    ])


def test_directed_deferred_duplicate_window():
    """A key vacated by a pending write is still taken until close."""
    session = IteratorSession()
    session.run([
        ("insert", 4, 0),
        ("open", 0, 0, 0),
        ("step", True, 9, 0, False),  # key 4 -> 9, deferred
        ("insert", 4, 3),             # must raise DuplicateKeyError (model
                                      # asserts it): index still holds 4
        ("close",),
    ])
    # After close the index finally frees key 4.
    session2 = IteratorSession()
    session2.run([
        ("insert", 4, 0),
        ("open", 0, 0, 0),
        ("step", True, 9, 0, False),
        ("close",),
        ("insert", 4, 3),             # now legal
    ])


def test_directed_insert_while_open_is_invisible():
    session = IteratorSession()
    session.run([
        ("insert", 0, 0),
        ("insert", 1, 1),
        ("open", 0, 0, 0),
        ("insert", 2, 2),   # mid-iteration: must not appear under cursor
        ("step", False, 0, 0, False),
        ("insert", 3, 3),
        ("step", False, 0, 0, False),
        ("step", False, 0, 0, False),
        ("close",),
    ])


hypothesis = pytest.importorskip("hypothesis", reason="hypothesis not installed")
from hypothesis import given, settings, strategies as st  # noqa: E402

op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, KEYS - 1),
              st.integers(0, RANKS - 1)),
    st.tuples(st.just("open"), st.integers(0, 2), st.integers(0, KEYS - 1),
              st.integers(0, KEYS - 1)),
    st.tuples(st.just("step"), st.booleans(), st.integers(0, KEYS - 1),
              st.integers(0, RANKS - 1), st.booleans()),
    st.tuples(st.just("close")),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op_strategy, max_size=60))
def test_hypothesis_iterator_sessions(ops):
    IteratorSession().run(ops)
