"""Tests for the platform substrates (untrusted/secret/counter/archival)."""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectionstore.jsonrecord import JsonRecord
from repro.errors import StoreError
from repro.platform import (
    Attacker,
    FileArchivalStore,
    FileOneWayCounter,
    FileSecretStore,
    FileUntrustedStore,
    MemoryArchivalStore,
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)
from repro.platform.untrusted import MAX_OPEN_FILES


@pytest.fixture(params=["memory", "file"])
def any_untrusted(request, tmp_path):
    if request.param == "memory":
        return MemoryUntrustedStore()
    return FileUntrustedStore(str(tmp_path / "untrusted"))


@pytest.fixture(params=["memory", "file"])
def any_archival(request, tmp_path):
    if request.param == "memory":
        return MemoryArchivalStore()
    return FileArchivalStore(str(tmp_path / "archive"))


class TestUntrustedStore:
    def test_write_then_read(self, any_untrusted):
        any_untrusted.write("seg-0", 0, b"hello")
        assert any_untrusted.read("seg-0") == b"hello"
        assert any_untrusted.read("seg-0", 1, 3) == b"ell"

    def test_write_past_end_zero_fills(self, any_untrusted):
        any_untrusted.write("f", 4, b"xy")
        assert any_untrusted.read("f") == b"\x00\x00\x00\x00xy"
        assert any_untrusted.size("f") == 6

    def test_overwrite_in_place(self, any_untrusted):
        any_untrusted.write("f", 0, b"abcdef")
        any_untrusted.write("f", 2, b"XY")
        assert any_untrusted.read("f") == b"abXYef"

    def test_append_returns_offset(self, any_untrusted):
        assert any_untrusted.append("f", b"abc") == 0
        assert any_untrusted.append("f", b"de") == 3
        assert any_untrusted.read("f") == b"abcde"

    def test_truncate_shrinks_and_grows(self, any_untrusted):
        any_untrusted.write("f", 0, b"abcdef")
        any_untrusted.truncate("f", 3)
        assert any_untrusted.read("f") == b"abc"
        any_untrusted.truncate("f", 5)
        assert any_untrusted.read("f") == b"abc\x00\x00"

    def test_list_and_delete(self, any_untrusted):
        any_untrusted.write("b", 0, b"1")
        any_untrusted.write("a", 0, b"2")
        assert any_untrusted.list_files() == ["a", "b"]
        any_untrusted.delete("a")
        assert any_untrusted.list_files() == ["b"]
        assert not any_untrusted.exists("a")

    def test_missing_file_errors(self, any_untrusted):
        with pytest.raises(StoreError):
            any_untrusted.read("missing")
        with pytest.raises(StoreError):
            any_untrusted.delete("missing")
        with pytest.raises(StoreError):
            any_untrusted.size("missing")

    def test_total_bytes(self, any_untrusted):
        any_untrusted.write("a", 0, b"12345")
        any_untrusted.write("b", 0, b"123")
        assert any_untrusted.total_bytes() == 8

    def test_io_stats_accumulate(self, any_untrusted):
        any_untrusted.write("f", 0, b"abcd")
        any_untrusted.read("f")
        any_untrusted.sync("f")
        stats = any_untrusted.stats
        assert stats.bytes_written == 4
        assert stats.bytes_read == 4
        assert stats.write_calls == 1
        assert stats.read_calls == 1
        assert stats.sync_calls == 1

    def test_file_store_rejects_path_escape(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        with pytest.raises(StoreError):
            store.write("../evil", 0, b"x")
        with pytest.raises(StoreError):
            store.read("..")

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 64), st.binary(min_size=1, max_size=16)),
            max_size=20,
        )
    )
    @settings(max_examples=30)
    def test_property_memory_matches_reference_model(self, ops):
        store = MemoryUntrustedStore()
        model = bytearray()
        for offset, data in ops:
            store.write("f", offset, data)
            if offset > len(model):
                model.extend(b"\x00" * (offset - len(model)))
            model[offset:offset + len(data)] = data
        if ops:
            assert store.read("f") == bytes(model)


_PROC_FD = "/proc/self/fd"


class _Record(JsonRecord):
    class_id = "test.platform.record"


def held_descriptors(root: str):
    """``(path, writable)`` of every descriptor this process holds under ``root``."""
    held = []
    prefix = os.path.realpath(root) + os.sep
    for fd in os.listdir(_PROC_FD):
        try:
            target = os.readlink(os.path.join(_PROC_FD, fd))
            with open(f"/proc/self/fdinfo/{fd}") as info:
                flags = next(
                    int(line.split()[1], 8) for line in info if line.startswith("flags:")
                )
        except OSError:
            continue  # closed meanwhile (the listing's own descriptor)
        if target.startswith(prefix):
            held.append((target, flags & os.O_ACCMODE != os.O_RDONLY))
    return held


@pytest.mark.skipif(not os.path.isdir(_PROC_FD), reason="needs /proc/self/fd")
class TestHeldDescriptors:
    """FileUntrustedStore serves I/O through a bounded set of open files."""

    def test_cap_holds_with_more_files_than_the_cap(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        names = [f"seg-{n:08d}" for n in range(MAX_OPEN_FILES + 8)]
        for name in names:
            store.write(name, 0, name.encode())
            assert len(held_descriptors(store.root)) <= MAX_OPEN_FILES
        for name in reversed(names):
            assert store.read(name) == name.encode()
            store.sync(name)
            assert len(held_descriptors(store.root)) <= MAX_OPEN_FILES
        store.close()
        assert held_descriptors(store.root) == []

    def test_read_after_delete_raises(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        store.write("f", 0, b"abc")
        assert store.read("f") == b"abc"
        store.delete("f")
        assert held_descriptors(store.root) == []
        with pytest.raises(StoreError):
            store.read("f")
        with pytest.raises(StoreError):
            store.read("f", 0, 1)

    def test_read_after_truncate_sees_new_size(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        store.write("f", 0, b"abcdef")
        assert store.read("f") == b"abcdef"
        store.truncate("f", 2)
        assert store.read("f") == b"ab"
        store.truncate("f", 4)
        assert store.read("f") == b"ab\x00\x00"
        assert store.read("f", 1, 10) == b"b\x00\x00"

    def test_write_past_end_through_held_descriptor_zero_fills(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        store.write("f", 0, b"ab")
        assert store.read("f") == b"ab"
        store.write("f", 6, b"yz")
        assert store.read("f") == b"ab\x00\x00\x00\x00yz"
        assert store.size("f") == 8
        assert store.read("f", 8) == b""

    def test_read_of_a_removed_file_raises_and_creates_nothing(self, tmp_path):
        store = FileUntrustedStore(str(tmp_path / "u"))
        store.write("f", 0, b"abc")
        store.close()
        os.remove(os.path.join(store.root, "f"))
        with pytest.raises(StoreError):
            store.read("f")
        assert not store.exists("f")

    def test_reads_never_open_for_writing(self, tmp_path):
        writer = FileUntrustedStore(str(tmp_path / "u"))
        for n in range(3):
            writer.write(f"f{n}", 0, b"data")
        writer.close()
        reader = FileUntrustedStore(str(tmp_path / "u"))
        for n in range(3):
            assert reader.read(f"f{n}") == b"data"
            reader.sync(f"f{n}")
        held = held_descriptors(reader.root)
        assert len(held) == 3
        assert not any(writable for _, writable in held)
        reader.close()

    def test_read_only_database_opens_nothing_for_writing(self, tmp_path):
        from repro import Database
        from repro.replication import open_replica_database

        directory = str(tmp_path / "db")
        with Database.create(directory) as db:
            db.register_class(_Record)
            with db.transaction() as txn:
                txn.bind_name("k", txn.insert(_Record({"n": 1})))
        data = os.path.join(directory, "data")
        db = open_replica_database(directory)
        db.register_class(_Record)
        try:
            with db.transaction() as txn:
                assert txn.open_readonly(txn.lookup_name("k")).deref().value == {"n": 1}
            db.scrub()
            held = held_descriptors(data)
            assert held
            assert not any(writable for _, writable in held)
        finally:
            db.close()
        assert held_descriptors(data) == []

    def test_database_close_releases_every_descriptor(self, tmp_path):
        from repro import Database

        directory = str(tmp_path / "db")
        db = Database.create(directory)
        db.register_class(_Record)
        with db.transaction() as txn:
            txn.bind_name("k", txn.insert(_Record({"n": 1})))
        assert held_descriptors(directory)
        db.close()
        assert held_descriptors(directory) == []
        db = Database.open_existing(directory)
        db.register_class(_Record)
        with db.transaction() as txn:
            assert txn.open_readonly(txn.lookup_name("k")).deref().value == {"n": 1}
        db.close()
        assert held_descriptors(directory) == []


class TestSecretStore:
    def test_memory_secret_roundtrip(self):
        store = MemorySecretStore(b"0123456789abcdef")
        assert store.read_secret() == b"0123456789abcdef"

    def test_short_secret_rejected(self):
        with pytest.raises(StoreError):
            MemorySecretStore(b"short")

    def test_generate_produces_distinct_secrets(self):
        a = MemorySecretStore.generate().read_secret()
        b = MemorySecretStore.generate().read_secret()
        assert a != b
        assert len(a) == 32

    def test_derived_keys_differ_by_purpose(self):
        store = MemorySecretStore(b"0123456789abcdef")
        enc = store.derive_key("encryption", 16)
        mac = store.derive_key("mac", 16)
        assert enc != mac
        assert len(enc) == len(mac) == 16

    def test_derivation_is_deterministic(self):
        store = MemorySecretStore(b"0123456789abcdef")
        assert store.derive_key("p", 48) == store.derive_key("p", 48)

    def test_derive_key_rejects_nonpositive_length(self):
        store = MemorySecretStore(b"0123456789abcdef")
        with pytest.raises(ValueError):
            store.derive_key("p", 0)

    def test_file_secret_store(self, tmp_path):
        path = str(tmp_path / "secret.key")
        created = FileSecretStore(path, create=True)
        reopened = FileSecretStore(path)
        assert created.read_secret() == reopened.read_secret()

    def test_file_secret_store_missing(self, tmp_path):
        with pytest.raises(StoreError):
            FileSecretStore(str(tmp_path / "absent.key"))


class TestOneWayCounter:
    def test_memory_counter_increments(self):
        counter = MemoryOneWayCounter()
        assert counter.read() == 0
        assert counter.increment() == 1
        assert counter.increment() == 2
        assert counter.read() == 2

    def test_file_counter_persists(self, tmp_path):
        path = str(tmp_path / "counter")
        counter = FileOneWayCounter(path)
        counter.increment()
        counter.increment()
        reopened = FileOneWayCounter(path)
        assert reopened.read() == 2

    def test_file_counter_detects_regression(self, tmp_path):
        path = str(tmp_path / "counter")
        counter = FileOneWayCounter(path)
        counter.increment()
        counter.increment()
        with open(path, "wb") as handle:
            handle.write(b"0")
        with pytest.raises(StoreError):
            counter.read()

    def test_file_counter_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "counter")
        with open(path, "wb") as handle:
            handle.write(b"not-a-number")
        with pytest.raises(StoreError):
            FileOneWayCounter(path)


class TestArchivalStore:
    def test_stream_roundtrip(self, any_archival):
        writer = any_archival.create_stream("backup-1")
        writer.write(b"part one, ")
        writer.write(b"part two")
        writer.close()
        with any_archival.open_stream("backup-1") as reader:
            assert reader.read() == b"part one, part two"

    def test_create_existing_fails(self, any_archival):
        any_archival.create_stream("s").close()
        with pytest.raises(StoreError):
            any_archival.create_stream("s")

    def test_open_missing_fails(self, any_archival):
        with pytest.raises(StoreError):
            any_archival.open_stream("missing")

    def test_list_and_delete(self, any_archival):
        any_archival.create_stream("b").close()
        any_archival.create_stream("a").close()
        assert any_archival.list_streams() == ["a", "b"]
        any_archival.delete_stream("a")
        assert any_archival.list_streams() == ["b"]
        assert not any_archival.exists("a")

    def test_memory_corrupt_changes_bytes(self):
        store = MemoryArchivalStore()
        writer = store.create_stream("s")
        writer.write(b"AAAA")
        writer.close()
        store.corrupt("s", 1, b"ZZ")
        with store.open_stream("s") as reader:
            assert reader.read() == b"AZZA"


class TestAttacker:
    def test_dump_and_search(self):
        store = MemoryUntrustedStore()
        store.write("f", 0, b"contains-plaintext-meter")
        attacker = Attacker(store)
        assert attacker.search_plaintext(b"plaintext") == ["f"]
        assert attacker.search_plaintext(b"absent") == []

    def test_flip_bit(self):
        store = MemoryUntrustedStore()
        store.write("f", 0, b"\x00\x00")
        Attacker(store).flip_bit("f", 1, bit=3)
        assert store.read("f") == b"\x00\x08"

    def test_flip_bit_bounds(self):
        store = MemoryUntrustedStore()
        store.write("f", 0, b"ab")
        attacker = Attacker(store)
        with pytest.raises(StoreError):
            attacker.flip_bit("f", 5)
        with pytest.raises(ValueError):
            attacker.flip_bit("f", 0, bit=9)

    def test_replay_image_restores_old_state(self):
        store = MemoryUntrustedStore()
        store.write("db", 0, b"version-1")
        attacker = Attacker(store)
        image = attacker.save_image()
        store.write("db", 0, b"version-2")
        store.write("new", 0, b"added-later")
        attacker.replay_image(image)
        assert store.read("db") == b"version-1"
        assert not store.exists("new")

    def test_splice(self):
        store = MemoryUntrustedStore()
        store.write("a", 0, b"AAAA")
        store.write("b", 0, b"BB")
        Attacker(store).splice("a", "b")
        assert store.read("b") == b"AAAA"

    def test_traffic_profile_reports_changed_bytes(self):
        store = MemoryUntrustedStore()
        store.write("f", 0, b"AAAA")
        attacker = Attacker(store)
        before = attacker.dump()
        store.write("f", 2, b"ZZ")
        profile = attacker.traffic_profile(before)
        assert profile == {"f": 2}


class TestStagedArchivalStore:
    def _make(self):
        from repro.platform import (
            MemoryArchivalStore,
            MemoryUntrustedStore,
            StagedArchivalStore,
        )

        local = MemoryUntrustedStore()
        remote = MemoryArchivalStore()
        return StagedArchivalStore(local, remote), local, remote

    def test_stream_lands_in_staging(self):
        staged, local, remote = self._make()
        writer = staged.create_stream("b1")
        writer.write(b"backup-bytes")
        writer.close()
        assert staged.staged_streams() == ["b1"]
        assert remote.list_streams() == []
        with staged.open_stream("b1") as reader:
            assert reader.read() == b"backup-bytes"

    def test_migrate_moves_to_remote(self):
        staged, local, remote = self._make()
        for name in ("b1", "b2"):
            writer = staged.create_stream(name)
            writer.write(name.encode())
            writer.close()
        assert staged.migrate() == ["b1", "b2"]
        assert staged.staged_streams() == []
        assert remote.list_streams() == ["b1", "b2"]
        # Reads fall through to the remote transparently.
        with staged.open_stream("b2") as reader:
            assert reader.read() == b"b2"

    def test_migrate_limit(self):
        staged, local, remote = self._make()
        for name in ("a", "b", "c"):
            staged.create_stream(name).close()
        assert staged.migrate(limit=2) == ["a", "b"]
        assert staged.staged_streams() == ["c"]

    def test_migrate_is_idempotent_after_partial_crash(self):
        staged, local, remote = self._make()
        writer = staged.create_stream("b1")
        writer.write(b"data")
        writer.close()
        # Simulate a crash after the remote write, before staging cleanup:
        remote_writer = remote.create_stream("b1")
        remote_writer.write(b"data")
        remote_writer.close()
        assert staged.migrate() == ["b1"]  # no duplicate-create error
        with staged.open_stream("b1") as reader:
            assert reader.read() == b"data"

    def test_duplicate_create_rejected_across_tiers(self):
        from repro.errors import StoreError

        staged, local, remote = self._make()
        staged.create_stream("x").close()
        with pytest.raises(StoreError):
            staged.create_stream("x")
        staged.migrate()
        with pytest.raises(StoreError):
            staged.create_stream("x")  # now exists remotely

    def test_delete_covers_both_tiers(self):
        from repro.errors import StoreError

        staged, local, remote = self._make()
        staged.create_stream("x").close()
        staged.delete_stream("x")
        assert not staged.exists("x")
        with pytest.raises(StoreError):
            staged.delete_stream("x")

    def test_backup_store_over_staging(self, secret_store):
        """End-to-end: backups created into staging restore after migration."""
        from repro.backupstore import BackupStore
        from repro.chunkstore import ChunkStore
        from repro.config import ChunkStoreConfig
        from repro.platform import MemoryOneWayCounter, MemoryUntrustedStore

        config = ChunkStoreConfig(segment_size=8 * 1024, initial_segments=3)
        store = ChunkStore.format(
            MemoryUntrustedStore(), secret_store, MemoryOneWayCounter(), config
        )
        cid = store.allocate_chunk_id()
        store.write(cid, b"staged-backup-state")
        staged, local, remote = self._make()
        backups = BackupStore(staged, secret_store)
        backups.create_full(store, "full-1")
        assert staged.staged_streams() == ["full-1"]
        staged.migrate()
        restored = backups.restore(
            ["full-1"],
            MemoryUntrustedStore(),
            secret_store,
            MemoryOneWayCounter(),
            config,
        )
        assert restored.read(cid) == b"staged-backup-state"
        backups.close()


class TestIOStatsThreadSafety:
    """Concurrent sessions drive one platform store: bare ``+=`` on the
    counters would drop increments under contention, so IOStats takes a
    lock.  Exact totals across racing threads prove it holds."""

    THREADS = 8
    OPS = 2_000

    def test_concurrent_increments_are_exact(self):
        from repro.platform.iostats import IOStats

        stats = IOStats()
        barrier = threading.Barrier(self.THREADS)

        def hammer():
            barrier.wait()
            for _ in range(self.OPS):
                stats.record_read(3)
                stats.record_write(5, name="seg", offset=0)
                stats.record_sync()
                stats.record_retry()

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        total = self.THREADS * self.OPS
        snap = stats.snapshot()
        assert snap.read_calls == total
        assert snap.bytes_read == 3 * total
        assert snap.write_calls == total
        assert snap.bytes_written == 5 * total
        assert snap.sync_calls == total
        assert snap.transient_retries == total

    def test_snapshot_and_delta_are_detached(self):
        from repro.platform.iostats import IOStats

        stats = IOStats()
        stats.record_read(10)
        before = stats.snapshot()
        stats.record_read(10)
        delta = stats.delta_since(before)
        assert (delta.read_calls, delta.bytes_read) == (1, 10)
        before.record_read(1)  # mutating the copy leaves the original alone
        assert stats.snapshot().read_calls == 2

    def test_as_dict_is_json_able(self):
        import json

        from repro.platform.iostats import IOStats

        stats = IOStats()
        stats.record_write(7, name="f", offset=0)
        payload = stats.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["write_calls"] == 1
