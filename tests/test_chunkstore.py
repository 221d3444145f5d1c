"""Integration tests for the chunk store facade.

Covers the Figure 2 interface, durability semantics, checkpointing,
recovery, the cleaner, snapshots, and the security guarantees (tamper and
replay detection, secrecy).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.errors import (
    ChunkNotFoundError,
    ChunkStoreError,
    RecoveryError,
    ReplayDetectedError,
    TamperDetectedError,
)
from repro.platform import (
    Attacker,
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

SECRET = b"0123456789abcdef0123456789abcdef"


pytestmark = pytest.mark.usefixtures("store_aes")


def small_config(secure=True, **overrides):
    defaults = dict(
        segment_size=8 * 1024,
        initial_segments=4,
        checkpoint_residual_bytes=16 * 1024,
        map_fanout=8,
        security=SecurityProfile() if secure else SecurityProfile.insecure(),
    )
    defaults.update(overrides)
    return ChunkStoreConfig(**defaults)


def fresh_store(secure=True, **overrides):
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(SECRET)
    counter = MemoryOneWayCounter()
    config = small_config(secure, **overrides)
    store = ChunkStore.format(untrusted, secret, counter, config)
    return store, untrusted, secret, counter, config


class TestBasicOperations:
    def test_write_read_roundtrip(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"hello")
        assert store.read(cid) == b"hello"

    def test_overwrite_returns_latest(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"v1")
        store.write(cid, b"v2-longer-payload")
        assert store.read(cid) == b"v2-longer-payload"

    def test_variable_sized_chunks(self):
        store, *_ = fresh_store()
        for size in (0, 1, 100, 5000):
            cid = store.allocate_chunk_id()
            store.write(cid, bytes(size))
            assert store.read(cid) == bytes(size)

    def test_read_unwritten_signals(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        with pytest.raises(ChunkNotFoundError):
            store.read(cid)

    def test_write_unallocated_signals(self):
        store, *_ = fresh_store()
        with pytest.raises(ChunkStoreError):
            store.write(999, b"data")

    def test_deallocate_removes_state(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"data")
        store.deallocate(cid)
        with pytest.raises(ChunkNotFoundError):
            store.read(cid)
        assert not store.contains(cid)

    def test_deallocate_unallocated_signals(self):
        store, *_ = fresh_store()
        with pytest.raises(ChunkStoreError):
            store.deallocate(12345)

    def test_deallocated_id_is_reused(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        store.deallocate(cid)
        assert store.allocate_chunk_id() == cid

    def test_atomic_batch_commit(self):
        store, *_ = fresh_store()
        a, b = store.allocate_chunk_id(), store.allocate_chunk_id()
        store.commit({a: b"A", b: b"B"})
        c = store.allocate_chunk_id()
        store.commit({c: b"C"}, deallocs=[a])
        assert store.read(b) == b"B"
        assert store.read(c) == b"C"
        assert not store.contains(a)

    def test_commit_write_and_dealloc_same_chunk_rejected(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        with pytest.raises(ChunkStoreError):
            store.commit({cid: b"y"}, deallocs=[cid])

    def test_empty_commit_is_noop(self):
        store, *_ = fresh_store()
        before = store.stats().commits_total
        store.commit({})
        assert store.stats().commits_total == before

    def test_chunk_ids_sorted(self):
        store, *_ = fresh_store()
        ids = [store.allocate_chunk_id() for _ in range(5)]
        store.commit({cid: b"x" for cid in ids})
        assert store.chunk_ids() == sorted(ids)

    def test_operations_after_close_raise(self):
        store, *_ = fresh_store()
        store.close()
        with pytest.raises(ChunkStoreError):
            store.allocate_chunk_id()
        with pytest.raises(ChunkStoreError):
            store.read(0)

    def test_constructor_is_blocked(self):
        with pytest.raises(ChunkStoreError):
            ChunkStore()

    def test_format_refuses_non_empty_store(self):
        store, untrusted, secret, counter, config = fresh_store()
        with pytest.raises(ChunkStoreError):
            ChunkStore.format(untrusted, secret, counter, config)


class TestPersistenceAndRecovery:
    def test_clean_close_and_reopen(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"persistent")
        store.close()
        reopened = ChunkStore.open(untrusted, secret, counter, config)
        assert reopened.read(cid) == b"persistent"

    def test_crash_recovery_without_checkpoint(self):
        store, untrusted, secret, counter, config = fresh_store()
        cids = [store.allocate_chunk_id() for _ in range(10)]
        for index, cid in enumerate(cids):
            store.write(cid, f"chunk-{index}".encode())
        # No close(): simulate a crash by just reopening from the files.
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        for index, cid in enumerate(cids):
            assert recovered.read(cid) == f"chunk-{index}".encode()

    def test_nondurable_commit_discarded_on_crash(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"durable", durable=True)
        store.write(cid, b"volatile", durable=False)
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(cid) == b"durable"

    def test_nondurable_commit_survives_after_durable(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        other = store.allocate_chunk_id()
        store.write(cid, b"first", durable=True)
        store.write(cid, b"second", durable=False)
        store.write(other, b"durability barrier", durable=True)
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(cid) == b"second"

    def test_appends_after_discarding_the_whole_residual_log(self):
        """Recovery that keeps no residual record must rewind the hash
        chain to the master's anchor, or the next append is unverifiable."""
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"volatile", durable=False)
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert not recovered.contains(cid)
        cid = recovered.allocate_chunk_id()
        recovered.write(cid, b"durable")
        again = ChunkStore.open(untrusted, secret, counter, config)
        assert again.read(cid) == b"durable"

    def test_nondurable_insert_discarded(self):
        store, untrusted, secret, counter, config = fresh_store()
        keep = store.allocate_chunk_id()
        store.write(keep, b"keep", durable=True)
        lost = store.allocate_chunk_id()
        store.write(lost, b"lost", durable=False)
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(keep) == b"keep"
        assert not recovered.contains(lost)

    def test_recovery_after_checkpoint(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"before checkpoint")
        store.checkpoint()
        other = store.allocate_chunk_id()
        store.write(other, b"after checkpoint")
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(cid) == b"before checkpoint"
        assert recovered.read(other) == b"after checkpoint"

    def test_repeated_crash_recovery_cycles(self):
        store, untrusted, secret, counter, config = fresh_store()
        rng = random.Random(7)
        model = {}
        for cycle in range(5):
            for _ in range(30):
                if model and rng.random() < 0.2:
                    victim = rng.choice(sorted(model))
                    store.deallocate(victim)
                    del model[victim]
                else:
                    cid = store.allocate_chunk_id()
                    data = rng.randbytes(rng.randrange(10, 200))
                    store.write(cid, data)
                    model[cid] = data
            store = ChunkStore.open(untrusted, secret, counter, config)
            assert set(store.chunk_ids()) == set(model)
            for cid, data in model.items():
                assert store.read(cid) == data

    def test_open_without_format_fails(self):
        with pytest.raises(RecoveryError):
            ChunkStore.open(
                MemoryUntrustedStore(),
                MemorySecretStore(SECRET),
                MemoryOneWayCounter(),
                small_config(),
            )

    def test_segment_size_and_fanout_adopted_from_master(self):
        # The format is the store's own: an open takes segment size and
        # fanout from the authenticated master, whatever it was given.
        store, untrusted, secret, counter, config = fresh_store()
        store.close()
        for given_config in (
            small_config(segment_size=16 * 1024),
            small_config(map_fanout=16),
            None,
        ):
            store = ChunkStore.open(untrusted, secret, counter, given_config)
            assert store.config.segment_size == config.segment_size
            assert store.config.map_fanout == config.map_fanout
            assert store.segments.segment_size == config.segment_size
            assert store.location_map.fanout == config.map_fanout
            cid = store.allocate_chunk_id()
            store.write(cid, b"adopted" * 8)
            store.close()
        store = ChunkStore.open(untrusted, secret, counter, config)
        assert store.read(cid) == b"adopted" * 8
        store.close()

    def test_security_profile_mismatch_rejected(self):
        # Opening an insecure store with the secure profile cannot be
        # distinguished from tampering (the master carries no valid MAC),
        # so any TDB error is acceptable — but never a silent open.
        from repro.errors import TDBError

        store, untrusted, secret, counter, config = fresh_store(secure=False)
        store.close()
        with pytest.raises(TDBError):
            ChunkStore.open(untrusted, secret, counter, small_config(secure=True))
        store2, untrusted2, secret2, counter2, _ = fresh_store(secure=True)
        store2.close()
        with pytest.raises(TDBError):
            ChunkStore.open(untrusted2, secret2, counter2, small_config(secure=False))

    def test_torn_tail_is_discarded_not_tamper(self):
        # A crash can interrupt an append mid-record.  A torn *nondurable*
        # record is silently discarded (it was allowed to be lost).
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"committed", durable=True)
        store.write(cid, b"torn-away", durable=False)
        tail = f"seg-{store.segments.tail_segment:08d}"
        untrusted.truncate(tail, untrusted.size(tail) - 5)
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(cid) == b"committed"

    def test_truncating_completed_durable_commit_is_detected(self):
        # Chopping off a commit whose counter bump already happened is a
        # rollback attempt, not a crash, and must be flagged.
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"v1", durable=True)
        store.write(cid, b"v2", durable=True)
        tail = f"seg-{store.segments.tail_segment:08d}"
        untrusted.truncate(tail, untrusted.size(tail) - 5)
        with pytest.raises(ReplayDetectedError):
            ChunkStore.open(untrusted, secret, counter, config)

    def test_wrong_secret_cannot_open(self):
        store, untrusted, _secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"locked")
        store.close()
        wrong = MemorySecretStore(b"ffffffffffffffffffffffffffffffff")
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, wrong, counter, config)


class TestCheckpointAndLog:
    def test_auto_checkpoint_bounds_residual(self):
        store, *_ = fresh_store(checkpoint_residual_bytes=4 * 1024)
        cid = store.allocate_chunk_id()
        for index in range(200):
            store.write(cid, bytes(100))
        assert store.stats().checkpoints_total > 1
        assert store.stats().residual_bytes < 4 * 1024 + 8 * 1024

    def test_checkpoint_noop_when_clean(self):
        store, *_ = fresh_store()
        store.checkpoint()
        count = store.stats().checkpoints_total
        store.checkpoint()
        assert store.stats().checkpoints_total == count

    def test_log_spans_many_segments(self):
        store, *_ = fresh_store()
        cids = [store.allocate_chunk_id() for _ in range(20)]
        for cid in cids:
            store.write(cid, bytes(2000))
        assert store.stats().segment_count >= 4
        for cid in cids:
            assert store.read(cid) == bytes(2000)

    def test_oversized_commit_single_record(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        big = bytes(40 * 1024)  # larger than a whole segment
        store.write(cid, big)
        assert store.read(cid) == big
        store.checkpoint()
        assert store.read(cid) == big


class TestCleaner:
    def test_cleaning_recycles_segments(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        for _ in range(500):
            store.write(cid, bytes(500))
        stats = store.stats()
        assert stats.cleaner.segments_freed > 0
        # One live chunk: the database must stay far smaller than the log
        # volume written (500 * 500 bytes).
        assert stats.capacity_bytes < 120 * 1024

    def test_cleaning_preserves_all_data(self):
        store, *_ = fresh_store()
        rng = random.Random(3)
        keep = {}
        for index in range(40):
            cid = store.allocate_chunk_id()
            data = rng.randbytes(300)
            store.write(cid, data)
            keep[cid] = data
        hot = store.allocate_chunk_id()
        for _ in range(400):
            store.write(hot, rng.randbytes(400))
        final = rng.randbytes(64)
        store.write(hot, final)
        keep[hot] = final
        assert store.stats().cleaner.segments_freed > 0
        for cid, data in keep.items():
            assert store.read(cid) == data

    def test_explicit_clean_pass(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        for _ in range(200):
            store.write(cid, bytes(800))
        store.checkpoint()
        freed = store.clean(max_segments=100)
        assert freed >= 0  # bounded pass; zero is legal if already compact
        assert store.read(cid) == bytes(800)

    def test_cleaning_survives_recovery(self):
        store, untrusted, secret, counter, config = fresh_store()
        keep = store.allocate_chunk_id()
        store.write(keep, b"cold data")
        hot = store.allocate_chunk_id()
        for _ in range(400):
            store.write(hot, bytes(500))
        store.write(hot, b"hot final")
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        assert recovered.read(keep) == b"cold data"
        assert recovered.read(hot) == b"hot final"

    def test_utilization_bound_respected(self):
        store, *_ = fresh_store(max_utilization=0.5)
        cid = store.allocate_chunk_id()
        for _ in range(300):
            store.write(cid, bytes(1000))
        # live is one chunk; capacity cannot be squeezed beyond the bound.
        assert store.stats().utilization <= 0.5 + 0.05


class TestSecurity:
    def test_payloads_are_encrypted(self):
        store, untrusted, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"DRM-SECRET-CONTENT-KEY")
        assert Attacker(untrusted).search_plaintext(b"DRM-SECRET") == []

    def test_insecure_profile_stores_plaintext(self):
        store, untrusted, *_ = fresh_store(secure=False)
        cid = store.allocate_chunk_id()
        store.write(cid, b"VISIBLE-MARKER")
        assert Attacker(untrusted).search_plaintext(b"VISIBLE-MARKER")

    def test_bit_flip_in_payload_detected_on_read(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"A" * 500)
        locator = store.location_map.lookup(cid)
        Attacker(untrusted).flip_bit(
            f"seg-{locator.segment:08d}", locator.offset + 10
        )
        with pytest.raises(TamperDetectedError):
            store.read(cid)

    def test_bit_flip_in_log_detected_on_recovery(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"B" * 500)
        locator = store.location_map.lookup(cid)
        Attacker(untrusted).flip_bit(
            f"seg-{locator.segment:08d}", locator.offset + 10
        )
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, secret, counter, config)

    def test_master_record_tamper_detected(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        store.close()
        attacker = Attacker(untrusted)
        attacker.flip_bit("master-a", 20)
        attacker.flip_bit("master-b", 20)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, secret, counter, config)

    def test_replay_attack_detected(self):
        store, untrusted, secret, counter, config = fresh_store()
        meter = store.allocate_chunk_id()
        store.write(meter, b"plays=0")
        store.checkpoint()
        attacker = Attacker(untrusted)
        saved = attacker.save_image()
        store.write(meter, b"plays=10")  # consumption the user wants to erase
        store.close()
        attacker.replay_image(saved)
        with pytest.raises(ReplayDetectedError):
            ChunkStore.open(untrusted, secret, counter, config)

    def test_counter_rollback_detected_as_tamper(self):
        store, untrusted, secret, counter, config = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"1")
        store.write(cid, b"2")
        store.close()
        # Violate the platform contract: hand recovery an older counter.
        rolled_back = MemoryOneWayCounter(0)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, secret, rolled_back, config)

    def test_log_splice_detected(self):
        store, untrusted, secret, counter, config = fresh_store()
        # All-live data across several segments (nothing for the cleaner).
        ids = [store.allocate_chunk_id() for _ in range(10)]
        for cid in ids:
            store.write(cid, bytes(3000))
        store.close()
        seg_files = [
            name
            for name in untrusted.list_files()
            if name.startswith("seg-") and untrusted.size(name) > 1000
        ]
        assert len(seg_files) >= 2
        Attacker(untrusted).splice(seg_files[0], seg_files[-1])
        # Detection may fire at open (anchor/chain validation) or lazily
        # on first access to the overwritten region (the Merkle check);
        # either way the splice must not go unnoticed.
        with pytest.raises(TamperDetectedError):
            reopened = ChunkStore.open(untrusted, secret, counter, config)
            for cid in ids:
                reopened.read(cid)

    def test_replay_detected_even_without_new_checkpoint(self):
        store, untrusted, secret, counter, config = fresh_store()
        meter = store.allocate_chunk_id()
        store.write(meter, b"balance=100")
        attacker = Attacker(untrusted)
        saved = attacker.save_image()
        store.write(meter, b"balance=0")
        store.close()
        attacker.replay_image(saved)
        with pytest.raises(ReplayDetectedError):
            ChunkStore.open(untrusted, secret, counter, config)


class TestSnapshots:
    def test_snapshot_sees_frozen_state(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"old")
        snap = store.snapshot()
        store.write(cid, b"new")
        assert snap.read(cid) == b"old"
        assert store.read(cid) == b"new"
        snap.release()

    def test_snapshot_context_manager(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"v")
        with store.snapshot() as snap:
            assert snap.read(cid) == b"v"
        assert snap.released

    def test_released_snapshot_rejects_reads(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"v")
        snap = store.snapshot()
        snap.release()
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            snap.read(cid)

    def test_snapshot_survives_cleaning(self):
        store, *_ = fresh_store()
        cold = store.allocate_chunk_id()
        store.write(cold, b"frozen-value")
        snap = store.snapshot()
        hot = store.allocate_chunk_id()
        for _ in range(300):
            store.write(hot, bytes(600))
        store.write(cold, b"live-value")
        assert snap.read(cold) == b"frozen-value"
        assert store.read(cold) == b"live-value"
        snap.release()

    def test_snapshot_release_unblocks_cleaning(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x" * 1000)
        snap = store.snapshot()
        for _ in range(200):
            store.write(cid, bytes(700))
        freed_while_pinned = store.stats().cleaner.segments_freed
        snap.release()
        for _ in range(200):
            store.write(cid, bytes(700))
        assert store.stats().cleaner.segments_freed > freed_while_pinned

    def test_diff_reports_changed_added_removed(self):
        store, *_ = fresh_store()
        stable = store.allocate_chunk_id()
        changed = store.allocate_chunk_id()
        removed = store.allocate_chunk_id()
        store.commit({stable: b"s", changed: b"c1", removed: b"r"})
        base = store.snapshot()
        added = store.allocate_chunk_id()
        store.commit({changed: b"c2", added: b"a"}, deallocs=[removed])
        current = store.snapshot()
        diff = current.diff_from(base)
        assert diff.changed == sorted([changed, added])
        assert diff.removed == [removed]
        base.release()
        current.release()

    def test_diff_empty_when_unchanged(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        first = store.snapshot()
        second = store.snapshot()
        assert second.diff_from(first).is_empty()
        first.release()
        second.release()

    def test_diff_wrong_order_rejected(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        older = store.snapshot()
        store.write(cid, b"y")
        newer = store.snapshot()
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            older.diff_from(newer)
        older.release()
        newer.release()

    def test_diff_across_map_growth(self):
        # Writing a chunk id beyond the current map capacity grows the
        # tree; diffing across the growth must still work.
        store, *_ = fresh_store()
        first = store.allocate_chunk_id()
        store.write(first, b"base")
        base = store.snapshot()
        ids = [store.allocate_chunk_id() for _ in range(100)]
        store.commit({cid: b"fill" for cid in ids})
        current = store.snapshot()
        diff = current.diff_from(base)
        assert diff.changed == sorted(ids)
        assert diff.removed == []
        base.release()
        current.release()

    def test_snapshot_iteration_matches_store(self):
        store, *_ = fresh_store()
        ids = [store.allocate_chunk_id() for _ in range(10)]
        store.commit({cid: str(cid).encode() for cid in ids})
        snap = store.snapshot()
        assert list(snap.chunk_ids()) == sorted(ids)
        assert snap.count() == 10
        for cid in ids:
            assert snap.read(cid) == str(cid).encode()
        snap.release()


class TestPropertyBased:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["write", "overwrite", "dealloc"]),
                st.integers(0, 19),
                st.binary(min_size=0, max_size=120),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_store_matches_dict_model(self, operations):
        store, untrusted, secret, counter, config = fresh_store()
        model = {}
        handles = {}
        for op, slot, data, durable in operations:
            if op in ("write", "overwrite"):
                if slot not in handles:
                    handles[slot] = store.allocate_chunk_id()
                store.write(handles[slot], data, durable=durable)
                model[slot] = data
            elif op == "dealloc" and slot in model:
                store.deallocate(handles[slot])
                del model[slot]
                del handles[slot]
        for slot, data in model.items():
            assert store.read(handles[slot]) == data
        live_ids = {handles[slot] for slot in model}
        assert set(store.chunk_ids()) == live_ids
        # Crash-recover and re-verify (everything was made durable by the
        # last durable commit or will be trimmed consistently).
        store.commit(
            {store.allocate_chunk_id(): b"durability-barrier"}, durable=True
        )
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        for slot, data in model.items():
            assert recovered.read(handles[slot]) == data


class TestIdleMaintenance:
    def test_idle_maintenance_checkpoints_and_cleans(self):
        store, *_ = fresh_store(checkpoint_residual_bytes=1024 * 1024)
        cid = store.allocate_chunk_id()
        for _ in range(300):
            store.write(cid, bytes(500), durable=False)
        assert store.stats().residual_bytes > 0
        report = store.idle_maintenance()
        assert report["checkpointed"]
        stats = store.stats()
        assert stats.residual_bytes == 0
        # Idle cleaning compacted the single-live-chunk database.
        assert stats.capacity_bytes < 100 * 1024
        assert store.read(cid) == bytes(500)

    def test_idle_maintenance_noop_when_tidy(self):
        store, *_ = fresh_store()
        cid = store.allocate_chunk_id()
        store.write(cid, b"x")
        store.idle_maintenance()
        report = store.idle_maintenance()
        assert not report["checkpointed"]
        assert report["segments_freed"] == 0

    def test_recovery_after_idle_maintenance(self):
        store, untrusted, secret, counter, config = fresh_store()
        cids = [store.allocate_chunk_id() for _ in range(10)]
        for index, cid in enumerate(cids):
            store.write(cid, bytes([index]) * 100)
        store.idle_maintenance()
        recovered = ChunkStore.open(untrusted, secret, counter, config)
        for index, cid in enumerate(cids):
            assert recovered.read(cid) == bytes([index]) * 100


class TestThreadSafety:
    def test_concurrent_readers_and_writers(self):
        """The store's internal lock must serialize mixed traffic safely."""
        import threading

        store, *_ = fresh_store(secure=False)
        base_ids = [store.allocate_chunk_id() for _ in range(20)]
        store.commit({cid: b"init" for cid in base_ids})
        errors = []

        def writer(seed):
            rng = random.Random(seed)
            try:
                for index in range(60):
                    cid = rng.choice(base_ids)
                    store.write(cid, b"w%d-%d" % (seed, index), durable=(index % 4 == 0))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(120):
                    data = store.read(rng.choice(base_ids))
                    assert data == b"init" or data.startswith(b"w")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
        threads += [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        # The store is still structurally sound afterwards.
        for cid in base_ids:
            assert store.read(cid)
        store.checkpoint()
