"""Tests for the object store: typed objects, transactions, locking, cache."""

from __future__ import annotations

import threading

import pytest

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, ObjectStoreConfig
from repro.errors import (
    LockTimeoutError,
    ObjectNotFoundError,
    PicklingError,
    ReadOnlyViolationError,
    StaleRefError,
    TransactionInactiveError,
    TypeCheckError,
    UnknownClassError,
)
from repro.objectstore import (
    BufferReader,
    BufferWriter,
    ClassRegistry,
    ObjectStore,
    Persistent,
)
from repro.objectstore.locks import LockManager, LockMode
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

SECRET = b"0123456789abcdef0123456789abcdef"


class Meter(Persistent):
    """Sample persistent class used throughout (mirrors the paper's Meter)."""

    class_id = "test.meter"

    def __init__(self, meter_id=0, view_count=0, print_count=0):
        self.meter_id = meter_id
        self.view_count = view_count
        self.print_count = print_count

    def pickle(self) -> bytes:
        return (
            BufferWriter()
            .write_int(self.meter_id)
            .write_int(self.view_count)
            .write_int(self.print_count)
            .getvalue()
        )

    @classmethod
    def unpickle(cls, data: bytes) -> "Meter":
        reader = BufferReader(data)
        obj = cls(reader.read_int(), reader.read_int(), reader.read_int())
        reader.expect_end()
        return obj


class Profile(Persistent):
    """Holds object-id references to Meter objects."""

    class_id = "test.profile"

    def __init__(self, meter_oids=None):
        self.meter_oids = list(meter_oids or [])

    def pickle(self) -> bytes:
        return BufferWriter().write_uint_list(self.meter_oids).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Profile":
        reader = BufferReader(data)
        obj = cls(reader.read_uint_list())
        reader.expect_end()
        return obj


class Unregistered(Persistent):
    class_id = "test.unregistered"

    def pickle(self) -> bytes:
        return b""


def build_store(locking=True, lock_timeout=0.15):
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(SECRET)
    counter = MemoryOneWayCounter()
    config = ChunkStoreConfig(
        segment_size=8 * 1024,
        initial_segments=4,
        checkpoint_residual_bytes=16 * 1024,
        map_fanout=8,
    )
    chunk_store = ChunkStore.format(untrusted, secret, counter, config)
    registry = ClassRegistry()
    registry.register(Meter)
    registry.register(Profile)
    store = ObjectStore.create(
        chunk_store,
        ObjectStoreConfig(
            cache_bytes=256 * 1024, locking=locking, lock_timeout=lock_timeout
        ),
        registry,
    )
    return store, untrusted, secret, counter, config, registry


def reattach(untrusted, secret, counter, config, registry):
    chunk_store = ChunkStore.open(untrusted, secret, counter, config)
    return ObjectStore.attach(chunk_store, registry=registry)


class TestEncoding:
    def test_all_primitives_roundtrip(self):
        writer = (
            BufferWriter()
            .write_int(-5)
            .write_uint(2**63)
            .write_bool(True)
            .write_float(3.25)
            .write_bytes(b"\x00\xff")
            .write_str("héllo")
            .write_optional_uint(None)
            .write_optional_uint(7)
            .write_uint_list([1, 2, 3])
        )
        reader = BufferReader(writer.getvalue())
        assert reader.read_int() == -5
        assert reader.read_uint() == 2**63
        assert reader.read_bool() is True
        assert reader.read_float() == 3.25
        assert reader.read_bytes() == b"\x00\xff"
        assert reader.read_str() == "héllo"
        assert reader.read_optional_uint() is None
        assert reader.read_optional_uint() == 7
        assert reader.read_uint_list() == [1, 2, 3]
        reader.expect_end()

    def test_truncated_read_raises(self):
        with pytest.raises(PicklingError):
            BufferReader(b"\x00\x00").read_int()

    def test_expect_end_catches_drift(self):
        data = BufferWriter().write_int(1).write_int(2).getvalue()
        reader = BufferReader(data)
        reader.read_int()
        with pytest.raises(PicklingError):
            reader.expect_end()

    def test_out_of_range_int_rejected(self):
        with pytest.raises(PicklingError):
            BufferWriter().write_int(2**63)

    def test_invalid_bool_byte_rejected(self):
        with pytest.raises(PicklingError):
            BufferReader(b"\x02").read_bool()


class TestRegistry:
    def test_duplicate_class_id_rejected(self):
        registry = ClassRegistry()
        registry.register(Meter)

        class Impostor(Persistent):
            class_id = "test.meter"

        with pytest.raises(PicklingError):
            registry.register(Impostor)

    def test_reregistering_same_class_is_idempotent(self):
        registry = ClassRegistry()
        registry.register(Meter)
        registry.register(Meter)

    def test_empty_class_id_rejected(self):
        registry = ClassRegistry()

        class Nameless(Persistent):
            class_id = ""

        with pytest.raises(PicklingError):
            registry.register(Nameless)

    def test_unknown_class_id_on_unpickle(self):
        registry = ClassRegistry()
        registry.register(Meter)
        payload = registry.pickle_object(Meter(1))
        with pytest.raises(UnknownClassError):
            ClassRegistry().unpickle_object(payload)

    def test_pickle_unregistered_rejected(self):
        registry = ClassRegistry()
        with pytest.raises(PicklingError):
            registry.pickle_object(Unregistered())

    def test_object_roundtrip_via_registry(self):
        registry = ClassRegistry()
        registry.register(Meter)
        original = Meter(3, 10, 20)
        clone = registry.unpickle_object(registry.pickle_object(original))
        assert (clone.meter_id, clone.view_count, clone.print_count) == (3, 10, 20)


class TestTransactionBasics:
    def test_insert_and_read_across_transactions(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(7, view_count=2))
        with store.transaction() as txn:
            ref = txn.open_readonly(oid)
            assert ref.meter_id == 7
            assert ref.view_count == 2
            txn.abort()

    def test_write_through_writable_ref(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        with store.transaction() as txn:
            ref = txn.open_writable(oid)
            ref.view_count += 1
            ref.view_count += 1
        with store.transaction() as txn:
            assert txn.open_readonly(oid).view_count == 2
            txn.abort()

    def test_object_ids_can_reference_objects(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            meter_oid = txn.insert(Meter(1))
            profile_oid = txn.insert(Profile([meter_oid]))
            txn.set_root(profile_oid)
        with store.transaction() as txn:
            profile = txn.open_readonly(txn.get_root(), Profile)
            meter = txn.open_readonly(profile.meter_oids[0], Meter)
            assert meter.meter_id == 1
            txn.abort()

    def test_remove_frees_object(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        with store.transaction() as txn:
            txn.remove(oid)
        with store.transaction() as txn:
            with pytest.raises(ObjectNotFoundError):
                txn.open_readonly(oid)
            txn.abort()

    def test_remove_then_open_same_transaction(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        txn = store.transaction()
        txn.remove(oid)
        with pytest.raises(ObjectNotFoundError):
            txn.open_readonly(oid)
        txn.abort()

    def test_insert_and_remove_same_transaction_cancels(self):
        store, *_ = build_store()
        txn = store.transaction()
        oid = txn.insert(Meter())
        txn.remove(oid)
        txn.commit()
        with store.transaction() as check:
            with pytest.raises(ObjectNotFoundError):
                check.open_readonly(oid)
            check.abort()

    def test_open_missing_object(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            with pytest.raises(ObjectNotFoundError):
                txn.open_readonly(987654)
            txn.abort()

    def test_insert_non_persistent_rejected(self):
        store, *_ = build_store()
        txn = store.transaction()
        with pytest.raises(TypeCheckError):
            txn.insert("not an object")
        txn.abort()

    def test_insert_unregistered_class_rejected(self):
        store, *_ = build_store()
        txn = store.transaction()
        with pytest.raises(UnknownClassError):
            txn.insert(Unregistered())
        txn.abort()

    def test_transaction_sees_its_own_insert(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(5))
            ref = txn.open_readonly(oid)
            assert ref.meter_id == 5


class TestAbortAndDurability:
    def test_abort_rolls_back_writes(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=1))
        txn = store.transaction()
        ref = txn.open_writable(oid)
        ref.view_count = 99
        txn.abort()
        with store.transaction() as check:
            assert check.open_readonly(oid).view_count == 1
            check.abort()

    def test_abort_rolls_back_inserts(self):
        store, *_ = build_store()
        txn = store.transaction()
        oid = txn.insert(Meter())
        txn.abort()
        with store.transaction() as check:
            with pytest.raises(ObjectNotFoundError):
                check.open_readonly(oid)
            check.abort()

    def test_abort_rolls_back_removes(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(8))
        txn = store.transaction()
        txn.remove(oid)
        txn.abort()
        with store.transaction() as check:
            assert check.open_readonly(oid).meter_id == 8
            check.abort()

    def test_exception_in_context_manager_aborts(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=5))
        with pytest.raises(RuntimeError):
            with store.transaction() as txn:
                ref = txn.open_writable(oid)
                ref.view_count = 0
                raise RuntimeError("application bug")
        with store.transaction() as check:
            assert check.open_readonly(oid).view_count == 5
            check.abort()

    def test_commit_twice_rejected(self):
        store, *_ = build_store()
        txn = store.transaction()
        txn.insert(Meter())
        txn.commit()
        with pytest.raises(TransactionInactiveError):
            txn.commit()

    def test_operations_after_commit_rejected(self):
        store, *_ = build_store()
        txn = store.transaction()
        oid = txn.insert(Meter())
        txn.commit()
        with pytest.raises(TransactionInactiveError):
            txn.open_readonly(oid)

    def test_durable_state_survives_crash(self):
        store, untrusted, secret, counter, config, registry = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=3))
            txn.set_root(oid)
        # Crash: reopen from the untrusted store without closing.
        recovered = reattach(untrusted, secret, counter, config, registry)
        with recovered.transaction() as txn:
            assert txn.open_readonly(txn.get_root()).view_count == 3
            txn.abort()

    def test_nondurable_commit_lost_on_crash(self):
        store, untrusted, secret, counter, config, registry = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=1))
            txn.set_root(oid)
        txn = store.transaction()
        ref = txn.open_writable(oid)
        ref.view_count = 50
        txn.commit(durable=False)
        recovered = reattach(untrusted, secret, counter, config, registry)
        with recovered.transaction() as txn:
            assert txn.open_readonly(txn.get_root()).view_count == 1
            txn.abort()


class TestRefs:
    def test_stale_ref_rejected(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(2))
            ref = txn.open_readonly(oid)
        with pytest.raises(StaleRefError):
            _ = ref.meter_id

    def test_stale_ref_after_abort(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        txn = store.transaction()
        ref = txn.open_readonly(oid)
        txn.abort()
        with pytest.raises(StaleRefError):
            ref.deref()

    def test_readonly_ref_blocks_mutation(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        with store.transaction() as txn:
            ref = txn.open_readonly(oid)
            with pytest.raises(ReadOnlyViolationError):
                ref.view_count = 7
            with pytest.raises(ReadOnlyViolationError):
                del ref.view_count
            txn.abort()

    def test_type_check_on_open(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        with store.transaction() as txn:
            with pytest.raises(TypeCheckError):
                txn.open_readonly(oid, Profile)
            ref = txn.open_readonly(oid, Meter)  # exact type passes
            ref2 = txn.open_readonly(oid, Persistent)  # supertype passes
            assert ref.oid == ref2.oid
            txn.abort()

    def test_ref_oid_accessible_after_close(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
            ref = txn.open_readonly(oid)
        assert ref.oid == oid  # metadata stays; data access raises
        assert not ref.valid

    def test_ref_equality_within_transaction(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
            a = txn.open_readonly(oid)
            b = txn.open_readonly(oid)
            assert a == b
            assert hash(a) == hash(b)


class TestCatalog:
    def test_root_registration(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            assert txn.get_root() is None
            oid = txn.insert(Meter())
            txn.set_root(oid)
        with store.transaction() as txn:
            assert txn.get_root() == oid
            txn.abort()

    def test_name_bindings(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
            txn.bind_name("meters", oid)
        with store.transaction() as txn:
            assert txn.lookup_name("meters") == oid
            assert txn.lookup_name("absent") is None
            txn.unbind_name("meters")
        with store.transaction() as txn:
            assert txn.lookup_name("meters") is None
            txn.abort()

    def test_unbind_missing_raises(self):
        store, *_ = build_store()
        txn = store.transaction()
        with pytest.raises(KeyError):
            txn.unbind_name("ghost")
        txn.abort()

    def test_catalog_survives_restart(self):
        store, untrusted, secret, counter, config, registry = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter())
            txn.set_root(oid)
            txn.bind_name("primary", oid)
        store.close()
        recovered = reattach(untrusted, secret, counter, config, registry)
        with recovered.transaction() as txn:
            assert txn.get_root() == oid
            assert txn.lookup_name("primary") == oid
            txn.abort()


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager(timeout=0.1)
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(2, 10, LockMode.SHARED)
        assert locks.holds(1, 10, LockMode.SHARED)
        assert locks.holds(2, 10, LockMode.SHARED)

    def test_exclusive_blocks_shared(self):
        locks = LockManager(timeout=0.1)
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, 10, LockMode.SHARED)

    def test_shared_blocks_exclusive(self):
        locks = LockManager(timeout=0.1)
        locks.acquire(1, 10, LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, 10, LockMode.EXCLUSIVE)

    def test_upgrade_when_sole_sharer(self):
        locks = LockManager(timeout=0.1)
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        assert locks.holds(1, 10, LockMode.EXCLUSIVE)

    def test_release_all_wakes_waiters(self):
        locks = LockManager(timeout=2.0)
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def contender():
            locks.acquire(2, 10, LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        locks.release_all(1)
        thread.join(timeout=2)
        assert acquired.is_set()

    def test_reacquire_same_mode_idempotent(self):
        locks = LockManager(timeout=0.1)
        locks.acquire(1, 10, LockMode.SHARED)
        locks.acquire(1, 10, LockMode.SHARED)
        locks.release_all(1)
        locks.acquire(2, 10, LockMode.EXCLUSIVE)

    def test_disabled_manager_grants_everything(self):
        locks = LockManager(enabled=False, timeout=0.1)
        locks.acquire(1, 10, LockMode.EXCLUSIVE)
        locks.acquire(2, 10, LockMode.EXCLUSIVE)


class TestConcurrency:
    def test_writer_blocks_reader_until_commit(self):
        store, *_ = build_store(lock_timeout=2.0)
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=0))
        writer = store.transaction()
        ref = writer.open_writable(oid)
        ref.view_count = 10
        observed = []

        def reader():
            with store.transaction() as txn:
                observed.append(txn.open_readonly(oid).view_count)
                txn.abort()

        thread = threading.Thread(target=reader)
        thread.start()
        writer.commit()
        thread.join(timeout=3)
        assert observed == [10]  # reader waited and saw committed state

    def test_deadlock_broken_by_timeout(self):
        store, *_ = build_store(lock_timeout=0.15)
        with store.transaction() as txn:
            a = txn.insert(Meter(1))
            b = txn.insert(Meter(2))
        txn1 = store.transaction()
        txn2 = store.transaction()
        txn1.open_writable(a)
        txn2.open_writable(b)
        errors = []

        def cross(txn, oid):
            try:
                txn.open_writable(oid)
            except LockTimeoutError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=cross, args=(txn1, b))
        t2 = threading.Thread(target=cross, args=(txn2, a))
        t1.start()
        t2.start()
        t1.join(timeout=3)
        t2.join(timeout=3)
        assert errors  # at least one side timed out, breaking the deadlock
        txn1.abort()
        txn2.abort()

    def test_concurrent_increments_are_serialized(self):
        store, *_ = build_store(lock_timeout=5.0)
        with store.transaction() as txn:
            oid = txn.insert(Meter(view_count=0))

        def bump():
            for _ in range(10):
                with store.transaction() as txn:
                    ref = txn.open_writable(oid)
                    ref.view_count += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        with store.transaction() as txn:
            assert txn.open_readonly(oid).view_count == 40
            txn.abort()

    def test_held_lock_skips_the_lock_manager(self, monkeypatch):
        store, *_ = build_store()
        calls = []
        acquire = store.locks.acquire
        monkeypatch.setattr(
            store.locks,
            "acquire",
            lambda txn_id, oid, mode: calls.append(mode) or acquire(txn_id, oid, mode),
        )
        with store.transaction() as txn:
            for _ in range(20):
                txn.lookup_name("missing")
            assert calls == [LockMode.SHARED]
            # Shared does not cover exclusive; exclusive covers both.
            txn.bind_name("primary", store.catalog_oid)
            txn.lookup_name("primary")
            txn.bind_name("again", store.catalog_oid)
            assert calls == [LockMode.SHARED, LockMode.EXCLUSIVE]
            assert store.locks.holds(txn.txn_id, store.catalog_oid, LockMode.EXCLUSIVE)

    def test_locking_disabled_mode(self):
        store, *_ = build_store(locking=False)
        with store.transaction() as txn:
            oid = txn.insert(Meter())
        txn1 = store.transaction()
        txn2 = store.transaction()
        txn1.open_writable(oid)
        txn2.open_writable(oid)  # no locks, no blocking
        txn1.abort()
        txn2.abort()


class TestCacheIntegration:
    def test_cache_hit_returns_same_instance(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(4))
        with store.transaction() as txn:
            first = txn.open_readonly(oid).deref()
            txn.abort()
        with store.transaction() as txn:
            second = txn.open_readonly(oid).deref()
            txn.abort()
        assert first is second

    def test_eviction_forces_reload(self):
        store, *_ = build_store()
        with store.transaction() as txn:
            oid = txn.insert(Meter(11))
        store.cache.remove("obj", oid)
        with store.transaction() as txn:
            assert txn.open_readonly(oid).meter_id == 11
            txn.abort()

    def test_dirty_objects_pinned_no_steal(self):
        store, *_ = build_store()
        txn = store.transaction()
        oid = txn.insert(Meter())
        assert store.cache.pin_count("obj", oid) == 1
        txn.commit()
        assert store.cache.pin_count("obj", oid) == 0

    def test_many_objects_under_small_cache(self):
        # Force evictions: objects must reload transparently.
        store, *_ = build_store()
        store.cache.budget_bytes = 4096
        oids = []
        for index in range(100):
            with store.transaction() as txn:
                oids.append(txn.insert(Meter(index)))
        for index, oid in enumerate(oids):
            with store.transaction() as txn:
                assert txn.open_readonly(oid).meter_id == index
                txn.abort()
