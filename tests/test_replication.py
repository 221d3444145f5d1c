"""Verified log-shipping replication: sync, serve, seed, promote.

The acceptance bar from the issue: after a clean shipping run the
replica's Merkle root and counter state must match the primary's
(checked by *reopening* the replica store), the replica must serve
snapshot-consistent reads while refusing every mutating verb, and
catch-up/seeding/promotion must all work end to end.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import threading

import pytest

from repro.config import ChunkStoreConfig
from repro.db import Database
from repro.errors import (
    ReadOnlyReplicaError,
    ReadOnlyStoreError,
    ReplayDetectedError,
    ReplicationError,
    StoreError,
    TamperDetectedError,
)
from repro.platform import (
    FileArchivalStore,
    FileOneWayCounter,
    FileSecretStore,
    MirrorOneWayCounter,
)
from repro.replication import (
    ReplicaApplier,
    TransactionGate,
    open_replica_database,
    promote_replica,
    seed_replica,
)
from repro.server import TdbClient, TdbServer
from repro.server.protocol import VERBS
from repro.server.server import RemoteRecord

# Small segments so modest workloads span several of them and the
# cleaner/checkpoint machinery is actually exercised by shipping.
CHUNK = ChunkStoreConfig(
    segment_size=8192, checkpoint_residual_bytes=8192, initial_segments=4
)


@contextlib.contextmanager
def running_primary(tmp_path):
    pdir = os.path.join(str(tmp_path), "primary")
    db = Database.create(pdir, CHUNK)
    server = TdbServer(db).start()
    try:
        yield server, db, pdir
    finally:
        server.stop()
        db.close()


def make_replica_dir(tmp_path, pdir, name="replica"):
    rdir = os.path.join(str(tmp_path), name)
    os.makedirs(rdir, exist_ok=True)
    shutil.copy(
        os.path.join(pdir, "secret.key"), os.path.join(rdir, "secret.key")
    )
    return rdir


def populate(server, count=25, start=0, size=400):
    oids = {}
    with TdbClient(*server.address) as client:
        with client.transaction() as txn:
            for i in range(start, start + count):
                oid = txn.put({"n": i, "pad": "x" * size})
                txn.bind(f"obj-{i}", oid)
                oids[i] = oid
    return oids


def replica_master(rdir):
    """The installed image's master record and the replica's counter."""
    db = open_replica_database(rdir, CHUNK)
    try:
        return db.chunk_store.master_io.load_latest(), db.chunk_store.counter.read()
    finally:
        db.close()


class TestCleanSync:
    def test_first_sync_matches_primary_bit_for_bit(self, tmp_path):
        with running_primary(tmp_path) as (server, db, pdir):
            oids = populate(server, 30)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True

            # Every shipped file is a prefix-exact copy of the primary's
            # (the primary tail may have grown past the anchor since).
            data_dir = os.path.join(rdir, "data")
            for name in os.listdir(data_dir):
                with open(os.path.join(data_dir, name), "rb") as fh:
                    got = fh.read()
                with open(os.path.join(pdir, "data", name), "rb") as fh:
                    want = fh.read(len(got))
                assert got == want, f"{name} diverges from the primary"

            # Reopen the replica store: root, identity, and counter state
            # must authenticate to exactly the primary's.
            master, counter = replica_master(rdir)
            primary = db.chunk_store.master_io.load_latest()
            assert master.db_uuid == primary.db_uuid
            assert master.generation == primary.generation
            assert master.root == primary.root
            assert master.expected_counter == primary.expected_counter
            assert counter == primary.expected_counter

            # And the data is readable through the replica stack.
            rdb = open_replica_database(rdir, CHUNK)
            rdb.register_class(RemoteRecord)
            try:
                with rdb.transaction() as txn:
                    for i, oid in oids.items():
                        assert txn.open_readonly(oid).value["n"] == i
            finally:
                rdb.close()

    def test_second_sync_is_up_to_date(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
                assert app.sync_once() is False
                stats = app.stats_snapshot()
                assert stats["up_to_date_polls"] == 1
                assert stats["lag_seqno"] == 0

    def test_incremental_sync_reuses_sealed_segments(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 30)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
                populate(server, 10, start=100)
                assert app.sync_once() is True
                stats = app.stats_snapshot()
                assert stats["shipments_applied"] == 2
                assert stats["segments_reused"] >= 1

    def test_replica_heals_its_own_bit_rot(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 20)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            # Rot a local segment, then advance the primary and resync:
            # the digest mismatch must force a clean re-fetch, not wedge.
            data_dir = os.path.join(rdir, "data")
            victim = sorted(
                n for n in os.listdir(data_dir) if n.startswith("seg-")
            )[0]
            path = os.path.join(data_dir, victim)
            with open(path, "r+b") as fh:
                fh.seek(100)
                byte = fh.read(1)
                fh.seek(100)
                fh.write(bytes([byte[0] ^ 0xFF]))
            populate(server, 5, start=200)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
            master, _ = replica_master(rdir)  # reopens + authenticates


class TestReadOnlyServing:
    def test_replica_serves_reads_and_refuses_writes(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            oids = populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
                rserver = app.serve()
                with TdbClient(*rserver.address) as client:
                    with client.transaction() as txn:
                        assert txn.lookup("obj-3") == oids[3]
                        assert txn.get(oids[3])["n"] == 3
                    # Every writing data verb of the verb table.
                    for verb in VERBS.values():
                        if not verb.mutating:
                            continue
                        mode = "object" if verb.scope == "objects" else "collection"
                        client.call("begin", mode=mode)
                        with pytest.raises(ReadOnlyReplicaError):
                            client.call(
                                verb.name, oid=oids[3], name="c", field="k",
                                key=1, value={"k": 1},
                            )
                        client.call("abort")

    def test_replica_stats_report_role_and_lag(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 10)
            with TdbClient(*server.address) as client:
                stats = client.stats()
                assert stats["replication"]["role"] == "primary"
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
                rserver = app.serve()
                with TdbClient(*rserver.address) as client:
                    stats = client.stats()
                    assert stats["read_only"] is True
                    repl = stats["replication"]
                    assert repl["role"] == "replica"
                    assert repl["applier"]["shipments_applied"] == 1
            with TdbClient(*server.address) as client:
                shipper = client.stats()["replication"]["shipper"]
                assert shipper["shipments"] >= 1

    def test_background_polling_follows_the_primary(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(
                rdir, *server.address, chunk_config=CHUNK, poll_interval=0.05
            ) as app:
                app.sync_once()
                app.start()
                populate(server, 10, start=50)
                deadline = threading.Event()
                for _ in range(100):
                    if app.stats_snapshot()["shipments_applied"] >= 2:
                        break
                    deadline.wait(0.05)
                stats = app.stats_snapshot()
                assert stats["shipments_applied"] >= 2
                assert stats["last_error"] is None

    def test_writes_through_replica_store_are_refused(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 5)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            rdb = open_replica_database(rdir, CHUNK)
            rdb.register_class(RemoteRecord)
            try:
                with pytest.raises(ReadOnlyStoreError):
                    with rdb.transaction() as txn:
                        txn.insert(RemoteRecord({"illegal": True}))
            finally:
                rdb.close()


class TestSeedAndPromote:
    def test_seed_from_backup_then_adopt_primary(self, tmp_path):
        with running_primary(tmp_path) as (server, db, pdir):
            populate(server, 20)
            db.backup_store().create_full(db.chunk_store, "full-0")
            rdir = make_replica_dir(tmp_path, pdir)
            seeded = seed_replica(
                rdir,
                ["full-0"],
                archival=FileArchivalStore(os.path.join(pdir, "archive")),
                chunk_config=CHUNK,
            )
            primary_uuid = db.chunk_store.master_io.load_latest().db_uuid
            assert seeded.db_uuid != primary_uuid

            # The seeded image serves stale reads before first contact.
            rdb = open_replica_database(rdir, CHUNK)
            try:
                with rdb.transaction() as txn:
                    assert txn.lookup_name("obj-0") is not None
            finally:
                rdb.close()

            # First sync adopts the primary's identity over the seed's.
            populate(server, 5, start=30)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
            master, _ = replica_master(rdir)
            assert master.db_uuid == primary_uuid

    def test_promote_opens_writable_and_defends_history(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            oids = populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
        # Primary is dead; promote the replica.
        db = promote_replica(rdir, CHUNK)
        db.register_class(RemoteRecord)
        try:
            assert not db.read_only
            with db.transaction() as txn:
                assert txn.open_readonly(oids[0]).value["n"] == 0
                txn.insert(RemoteRecord({"written": "post-promote"}))
        finally:
            db.close()
        assert os.path.exists(os.path.join(rdir, "counter"))
        # And the promoted node reopens like any primary.
        db = Database.open_existing(rdir, CHUNK)
        db.close()

    def test_promote_without_state_refuses(self, tmp_path):
        rdir = os.path.join(str(tmp_path), "empty")
        os.makedirs(rdir)
        FileSecretStore(os.path.join(rdir, "secret.key"), create=True)
        with pytest.raises(ReplicationError):
            promote_replica(rdir, CHUNK)


def read_replica_object(app, oid):
    db = app.open_serving_db()
    db.register_class(RemoteRecord)
    with db.transaction() as txn:
        return txn.open_readonly(oid).value


class TestReplicaCounter:
    """The replica holds its image under its own one-way counter."""

    def test_rolled_back_replica_refuses_to_serve_then_heals(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            stale = os.path.join(str(tmp_path), "stale")
            shutil.copytree(rdir, stale)  # the attacker's copy
            later = populate(server, 5, start=100)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
            # Roll back everything but the counter, which no attacker
            # can rewind.
            for name in os.listdir(stale):
                if name == "counter":
                    continue
                here, there = os.path.join(rdir, name), os.path.join(stale, name)
                if os.path.isdir(there):
                    shutil.rmtree(here)
                    shutil.copytree(there, here)
                else:
                    shutil.copy2(there, here)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                with pytest.raises(ReplayDetectedError):
                    app.open_serving_db()
                assert app.sync_once() is True
                assert read_replica_object(app, later[100])["n"] == 100

    def test_crash_before_counter_advance_keeps_old_image_then_heals(
        self, tmp_path, monkeypatch
    ):
        with running_primary(tmp_path) as (server, db, pdir):
            before = populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            later = populate(server, 5, start=100)

            def lose_power(cls, path, value):
                raise OSError("power lost before the counter advanced")

            with monkeypatch.context() as patch:
                patch.setattr(
                    FileOneWayCounter, "initialize", classmethod(lose_power)
                )
                with ReplicaApplier(
                    rdir, *server.address, chunk_config=CHUNK
                ) as app:
                    with pytest.raises(OSError):
                        app.sync_once()
                    assert read_replica_object(app, before[3])["n"] == 3
            # The verified new image waits in data.next/, but its counter
            # never advanced: the next open discards it and serves the old.
            assert os.path.isdir(os.path.join(rdir, "data.next"))
            rdb = open_replica_database(rdir, CHUNK)
            try:
                with rdb.transaction() as txn:
                    assert txn.lookup_name("obj-3") == before[3]
                    assert txn.lookup_name("obj-100") is None
            finally:
                rdb.close()
            assert not os.path.exists(os.path.join(rdir, "data.next"))
            counter = FileOneWayCounter(os.path.join(rdir, "counter")).read()
            assert counter < db.chunk_store.stats().counter_value
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
                assert read_replica_object(app, later[100])["n"] == 100

    def test_local_commits_after_a_failed_install_survive_promotion(
        self, tmp_path, monkeypatch
    ):
        # A sync fails before its counter advance and leaves data.next/.
        # Writable commits straight on data/ then catch the counter up
        # to data.next/'s value, so both images open against it.  The
        # settle before promotion must keep data/ and those commits.
        with running_primary(tmp_path) as (server, primary, pdir):
            populate(server, 10)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            populate(server, 5, start=100)
            # The value data.next/ opens against: the primary's counter
            # when it shipped.
            target_counter = primary.chunk_store.stats().counter_value

            def lose_power(cls, path, value):
                raise OSError("power lost before the counter advanced")

            with monkeypatch.context() as patch:
                patch.setattr(
                    FileOneWayCounter, "initialize", classmethod(lose_power)
                )
                with ReplicaApplier(
                    rdir, *server.address, chunk_config=CHUNK
                ) as app:
                    with pytest.raises(OSError):
                        app.sync_once()
        pending = os.path.join(rdir, "data.next")
        db = Database.open_existing(rdir, CHUNK)
        db.register_class(RemoteRecord)
        local = []
        try:
            while db.chunk_store.counter.read() < target_counter:
                with db.transaction() as txn:
                    oid = txn.insert(RemoteRecord({"local": len(local)}))
                    txn.bind_name(f"local-{len(local)}", oid)
                local.append(oid)
            assert db.chunk_store.counter.read() == target_counter
        finally:
            db.close()
        assert len(local) >= 1
        assert os.path.isdir(pending)
        db = promote_replica(rdir, CHUNK)
        db.register_class(RemoteRecord)
        try:
            with db.transaction() as txn:
                for i, oid in enumerate(local):
                    assert txn.lookup_name(f"local-{i}") == oid
                    assert txn.open_readonly(oid).value == {"local": i}
                assert txn.lookup_name("obj-100") is None
        finally:
            db.close()
        assert not os.path.exists(pending)

    def test_other_identity_must_not_be_behind_the_counter(self, tmp_path):
        with running_primary(tmp_path) as (server, _db, pdir):
            for batch in range(3):
                populate(server, 5, start=10 * batch)
            rdir = make_replica_dir(tmp_path, pdir)
            with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as app:
                app.sync_once()
            floor = FileOneWayCounter(os.path.join(rdir, "counter")).read()
        # A genuine database of another identity under the same device
        # secret, whose counter is behind the replica's: a replay.
        odir = make_replica_dir(tmp_path, pdir, name="other")
        other = Database.create(odir, CHUNK)
        oserver = TdbServer(other).start()
        try:
            assert other.chunk_store.stats().counter_value < floor
            with ReplicaApplier(rdir, *oserver.address, chunk_config=CHUNK) as app:
                with pytest.raises(ReplayDetectedError):
                    app.sync_once()
                app.open_serving_db()  # the installed image still serves
            # Once its counter is not behind, the identity may change.
            while other.chunk_store.stats().counter_value < floor:
                populate(oserver, 1, start=1000)
            with ReplicaApplier(rdir, *oserver.address, chunk_config=CHUNK) as app:
                assert app.sync_once() is True
            master, _ = replica_master(rdir)
            assert master.db_uuid == other.chunk_store.db_uuid
        finally:
            oserver.stop()
            other.close()


class TestTransactionGate:
    def test_exclusive_waits_for_readers(self):
        gate = TransactionGate()
        gate.acquire_shared()
        entered = threading.Event()
        done = threading.Event()

        def swap():
            with gate.exclusive():
                entered.set()
            done.set()

        thread = threading.Thread(target=swap)
        thread.start()
        assert not entered.wait(0.1)
        gate.release_shared()
        assert done.wait(2.0)
        thread.join()

    def test_new_readers_wait_for_writer(self):
        gate = TransactionGate()
        release_writer = threading.Event()
        writer_in = threading.Event()
        reader_in = threading.Event()

        def writer():
            with gate.exclusive():
                writer_in.set()
                release_writer.wait(2.0)

        def reader():
            with gate.shared():
                reader_in.set()

        wt = threading.Thread(target=writer)
        wt.start()
        assert writer_in.wait(2.0)
        rt = threading.Thread(target=reader)
        rt.start()
        assert not reader_in.wait(0.1)
        release_writer.set()
        assert reader_in.wait(2.0)
        wt.join()
        rt.join()


class TestCounterPrimitives:
    def test_mirror_counter_refuses_increment(self):
        counter = MirrorOneWayCounter(7)
        assert counter.read() == 7
        with pytest.raises(TamperDetectedError):
            counter.increment()

    def test_file_counter_initialize_refuses_rewind(self, tmp_path):
        from repro.platform import FileOneWayCounter

        path = os.path.join(str(tmp_path), "counter")
        FileOneWayCounter.initialize(path, 10)
        counter = FileOneWayCounter(path)
        assert counter.read() == 10
        with pytest.raises(StoreError):
            FileOneWayCounter.initialize(path, 5)
        # Forward (or equal) re-initialization is fine.
        FileOneWayCounter.initialize(path, 12)
        assert FileOneWayCounter(path).read() == 12
