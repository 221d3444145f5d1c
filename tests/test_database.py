"""Tests for the top-level Database facade (full-stack integration)."""

from __future__ import annotations

import gc
import os

import pytest

from repro import (
    ChunkStoreConfig,
    ClassRegistry,
    Database,
    Indexer,
    Persistent,
    BufferReader,
    BufferWriter,
)


class Song(Persistent):
    class_id = "db.song"

    def __init__(self, title="", plays=0):
        self.title = title
        self.plays = plays

    def pickle(self) -> bytes:
        return BufferWriter().write_str(self.title).write_int(self.plays).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Song":
        reader = BufferReader(data)
        return cls(reader.read_str(), reader.read_int())


def title_indexer():
    return Indexer("song-title", Song, lambda s: s.title, unique=True, kind="btree")


def small_chunk_config():
    return ChunkStoreConfig(
        segment_size=16 * 1024, initial_segments=4, map_fanout=16
    )


class TestInMemoryDatabase:
    def test_full_stack_roundtrip(self):
        with Database.in_memory(chunk_config=small_chunk_config()) as db:
            db.register_class(Song)
            db.register_indexer(title_indexer())
            with db.ctransaction() as ct:
                handle = ct.create_collection("library", title_indexer())
                handle.insert(Song("Blue Train", 3))
                handle.insert(Song("Giant Steps", 5))
            with db.ctransaction() as ct:
                handle = ct.read_collection("library")
                iterator = handle.query_match(title_indexer(), "Giant Steps")
                assert iterator.read().plays == 5
                iterator.close()
                ct.abort()

    def test_object_and_collection_transactions_share_store(self):
        with Database.in_memory(chunk_config=small_chunk_config()) as db:
            db.register_class(Song)
            with db.transaction() as txn:
                oid = txn.insert(Song("Naima", 1))
                txn.set_root(oid)
            with db.transaction() as txn:
                assert txn.open_readonly(txn.get_root()).title == "Naima"
                txn.abort()

    def test_stats_accessible(self):
        with Database.in_memory(chunk_config=small_chunk_config()) as db:
            stats = db.stats()
            assert stats.capacity_bytes > 0

    def test_io_stats_nest_the_crypto_kernel_table(self):
        # benchmarks/e2e reads io.perf.kernels; the table is all there is.
        with Database.in_memory(chunk_config=small_chunk_config()) as db:
            db.register_class(Song)
            with db.transaction() as txn:
                txn.set_root(txn.insert(Song("Blue in Green", 1)))
            perf = db.io_stats().as_dict()["perf"]
            assert list(perf) == ["kernels"]
            kernels = perf["kernels"]
            for prefix in ("cipher.", "hash."):
                names = [name for name in kernels if name.startswith(prefix)]
                assert names, f"no {prefix}* kernel recorded: {sorted(kernels)}"
                for name in names:
                    entry = kernels[name]
                    assert entry["calls"] > 0
                    assert entry["bytes"] > 0
                    assert entry["ns"] >= 0

    def test_backup_and_restore_through_facade(self):
        db = Database.in_memory(chunk_config=small_chunk_config())
        db.register_class(Song)
        with db.transaction() as txn:
            oid = txn.insert(Song("So What", 9))
            txn.set_root(oid)
        backups = db.backup_store()
        backups.create_full(db.chunk_store, "full-1")
        with db.transaction() as txn:
            ref = txn.open_writable(oid)
            ref.plays = 10
        backups.create_incremental(db.chunk_store, "incr-1")
        from repro.platform import (
            MemoryOneWayCounter,
            MemorySecretStore,
            MemoryUntrustedStore,
        )

        restored_chunks = backups.restore(
            ["full-1", "incr-1"],
            MemoryUntrustedStore(),
            MemorySecretStore(b"in-memory-demo-secret-0123456789"),
            MemoryOneWayCounter(),
            small_chunk_config(),
        )
        from repro.objectstore import ObjectStore

        restored = ObjectStore.attach(
            restored_chunks, registry=db.object_store.registry
        )
        with restored.transaction() as txn:
            assert txn.open_readonly(txn.get_root()).plays == 10
            txn.abort()
        backups.close()
        db.close()


class TestFileDatabase:
    def test_create_then_open(self, tmp_path):
        directory = str(tmp_path / "db")
        registry = ClassRegistry()
        registry.register(Song)
        db = Database.create(
            directory, chunk_config=small_chunk_config(), registry=registry
        )
        with db.transaction() as txn:
            oid = txn.insert(Song("Round Midnight", 2))
            txn.set_root(oid)
        db.close()
        registry2 = ClassRegistry()
        registry2.register(Song)
        reopened = Database.open_existing(
            directory, chunk_config=small_chunk_config(), registry=registry2
        )
        with reopened.transaction() as txn:
            assert txn.open_readonly(txn.get_root()).title == "Round Midnight"
            txn.abort()
        reopened.close()

    def test_crash_recovery_via_facade(self, tmp_path):
        directory = str(tmp_path / "db")
        registry = ClassRegistry()
        registry.register(Song)
        db = Database.create(
            directory, chunk_config=small_chunk_config(), registry=registry
        )
        with db.transaction() as txn:
            oid = txn.insert(Song("Freddie Freeloader", 4))
            txn.set_root(oid)
        # no close: simulated crash
        registry2 = ClassRegistry()
        registry2.register(Song)
        recovered = Database.open_existing(
            directory, chunk_config=small_chunk_config(), registry=registry2
        )
        with recovered.transaction() as txn:
            assert txn.open_readonly(txn.get_root()).plays == 4
            txn.abort()
        recovered.close()

    def test_replay_attack_on_files_detected(self, tmp_path):
        import shutil

        directory = str(tmp_path / "db")
        registry = ClassRegistry()
        registry.register(Song)
        db = Database.create(
            directory, chunk_config=small_chunk_config(), registry=registry
        )
        with db.transaction() as txn:
            oid = txn.insert(Song("All Blues", 0))
            txn.set_root(oid)
        db.close()
        saved = str(tmp_path / "stolen-copy")
        shutil.copytree(f"{directory}/data", saved)
        registry2 = ClassRegistry()
        registry2.register(Song)
        db = Database.open_existing(
            directory, chunk_config=small_chunk_config(), registry=registry2
        )
        with db.transaction() as txn:
            ref = txn.open_writable(oid)
            ref.plays = 100  # consumption to be erased
        db.close()
        shutil.rmtree(f"{directory}/data")
        shutil.copytree(saved, f"{directory}/data")
        from repro.errors import ReplayDetectedError

        with pytest.raises(ReplayDetectedError):
            Database.open_existing(directory, chunk_config=small_chunk_config())


def held_under(directory):
    """Paths of the descriptors this process holds under ``directory``."""
    prefix = os.path.realpath(directory) + os.sep
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:
            continue  # the listing's own descriptor, closed meanwhile
        if target.startswith(prefix):
            held.append(target)
    return held


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDurableCreate:
    def test_create_syncs_the_secret_and_its_directory(self, tmp_path, monkeypatch):
        # The key must be on disk before the first durable commit it
        # keys, or a crash can keep the data and lose the key.
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((info.st_dev, info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        directory = tmp_path / "db"
        Database.create(str(directory)).close()

        def identity(path):
            info = os.stat(path)
            return (info.st_dev, info.st_ino)

        assert identity(directory / "secret.key") in synced
        assert identity(directory) in synced


class TestFailedOpen:
    """An open that raises leaves no descriptor behind, without the GC."""

    def _created(self, tmp_path):
        directory = str(tmp_path / "db")
        Database.create(directory, chunk_config=small_chunk_config()).close()
        return directory

    def test_replay_detected_open_holds_no_descriptor(self, tmp_path):
        from repro.errors import ReplayDetectedError
        from repro.platform import FileOneWayCounter

        directory = self._created(tmp_path)
        path = os.path.join(directory, "counter")
        FileOneWayCounter.initialize(path, FileOneWayCounter(path).read() + 2)
        gc.disable()
        try:
            with pytest.raises(ReplayDetectedError):
                Database.open_existing(directory, chunk_config=small_chunk_config())
            assert held_under(directory) == []
        finally:
            gc.enable()

    def test_failed_object_attach_closes_the_chunk_store(self, tmp_path, monkeypatch):
        from repro.errors import TDBError
        from repro.objectstore import ObjectStore

        directory = self._created(tmp_path)

        def refuse(*args, **kwargs):
            raise TDBError("catalog unreadable")

        monkeypatch.setattr(ObjectStore, "attach", refuse)
        gc.disable()
        try:
            with pytest.raises(TDBError, match="catalog unreadable"):
                Database.open_existing(directory, chunk_config=small_chunk_config())
            assert held_under(directory) == []
        finally:
            gc.enable()
