"""The networked service: protocol, sessions, 2PL across the wire,
timeouts, admission control, and the group-commit acceptance numbers.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import pytest

from repro.collectionstore import CollectionStore
from repro.config import ChunkStoreConfig, ObjectStoreConfig
from repro.db import Database
from repro.errors import (
    LockTimeoutError,
    ObjectNotFoundError,
    ProtocolError,
    ServerBusyError,
    SessionStateError,
    TransientStoreError,
)
from repro.platform.resilient import RetryPolicy
from repro.server import BackpressureConfig, RemoteRecord, TdbClient, TdbServer, field_indexer
from repro.objectstore import groupcommit
from repro.server import protocol


@contextlib.contextmanager
def running_server(db=None, **server_kwargs):
    db = db or Database.in_memory()
    server = TdbServer(db, **server_kwargs).start()
    try:
        yield server
    finally:
        server.stop()
        db.close()


def connect(server, **kwargs) -> TdbClient:
    host, port = server.address
    return TdbClient(host, port, **kwargs)


class TestObjectVerbs:
    def test_roundtrip_and_names(self):
        with running_server() as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oid = txn.put({"title": "So What", "plays": 1})
                    txn.bind("track", oid)
                with client.transaction() as txn:
                    assert txn.lookup("track") == oid
                    assert txn.get(oid) == {"title": "So What", "plays": 1}
                    txn.put({"title": "So What", "plays": 2}, oid=oid)
                with client.transaction() as txn:
                    assert txn.get(oid)["plays"] == 2
                    txn.remove(oid)
                with client.transaction() as txn:
                    with pytest.raises(ObjectNotFoundError):
                        txn.get(oid)

    def test_abort_on_exception_discards_writes(self):
        with running_server() as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oid = txn.put({"v": 1})
                with pytest.raises(RuntimeError):
                    with client.transaction() as txn:
                        txn.put({"v": 2}, oid=oid)
                        raise RuntimeError("application bails out")
                with client.transaction() as txn:
                    assert txn.get(oid) == {"v": 1}


class TestCollectionVerbs:
    def test_create_insert_query_remove(self):
        with running_server() as server:
            with connect(server) as client:
                with client.transaction("collection") as ct:
                    ct.create_collection("tracks", "title", unique=True)
                    ct.insert("tracks", {"title": "a", "plays": 3})
                    ct.insert("tracks", {"title": "b", "plays": 5})
                    ct.insert("tracks", {"title": "c", "plays": 1})
                with client.transaction("collection") as ct:
                    assert ct.get_match("tracks", "b") == [
                        {"title": "b", "plays": 5}
                    ]
                    titles = [v["title"] for v in ct.iterate("tracks")]
                    assert titles == ["a", "b", "c"]  # btree order
                    ranged = ct.iterate("tracks", lo="a", hi="b")
                    assert [v["title"] for v in ranged] == ["a", "b"]
                with client.transaction("collection") as ct:
                    assert ct.remove_match("tracks", "b") == 1
                with client.transaction("collection") as ct:
                    assert ct.get_match("tracks", "b") == []

    def test_collections_survive_server_restart(self, tmp_path):
        directory = str(tmp_path / "db")
        db = Database.create(directory)
        with running_server(db=db) as server:
            with connect(server) as client:
                with client.transaction("collection") as ct:
                    ct.create_collection("meters", "device")
                    ct.insert("meters", {"device": "m1", "count": 7})

        # A brand-new process: fresh Database, fresh server, no in-memory
        # indexer registry — the field indexers must be reconstructed
        # from the persisted descriptor names alone.
        db2 = Database.open_existing(directory)
        with running_server(db=db2) as server:
            with connect(server) as client:
                with client.transaction("collection") as ct:
                    assert ct.get_match("meters", "m1") == [
                        {"device": "m1", "count": 7}
                    ]
                    ct.insert("meters", {"device": "m2", "count": 9})
                    assert len(ct.iterate("meters")) == 2


    def test_field_indexers_register_once_per_descriptor(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "db")
        with Database.create(directory) as db:
            db.register_class(RemoteRecord)
            with db.ctransaction() as ct:
                handle = ct.create_collection("tracks", field_indexer("tracks", "title"))
                handle.create_index(field_indexer("tracks", "plays"))
                handle.insert(RemoteRecord({"title": "a", "plays": 3}))
        registered = []
        original = CollectionStore.register_indexer

        def counting(store, indexer):
            registered.append(indexer.name)
            return original(store, indexer)

        monkeypatch.setattr(CollectionStore, "register_indexer", counting)
        with running_server(db=Database.open_existing(directory)) as server:
            with connect(server) as client:
                with client.transaction("collection") as ct:
                    for n in range(25):
                        assert ct.get_match("tracks", "a") == [{"title": "a", "plays": 3}]
                        assert ct.get_match("tracks", 3, field="plays") == [
                            {"title": "a", "plays": 3}
                        ]
        assert sorted(registered) == ["field:tracks:plays", "field:tracks:title"]


class TestProtocolErrors:
    def test_unknown_verb_and_state_machine(self):
        with running_server() as server:
            with connect(server) as client:
                with pytest.raises(ProtocolError, match="unknown verb"):
                    client.call("drop.tables")
                with pytest.raises(SessionStateError):
                    client.call("commit")
                client.call("begin", mode="object")
                with pytest.raises(SessionStateError):
                    client.call("begin", mode="object")  # one txn per session
                with pytest.raises(SessionStateError):
                    client.call("col.insert", name="x", value={})  # wrong mode
                client.call("abort")

    def test_mode_mismatch_and_no_txn_messages(self):
        with running_server() as server:
            with connect(server) as client:
                with pytest.raises(SessionStateError, match="no open transaction"):
                    client.call("obj.get", oid=1)
                with client.transaction("collection"):
                    with pytest.raises(SessionStateError, match="needs a object"):
                        client.call("obj.get", oid=1)

    def test_stats_verb_needs_no_transaction(self):
        with running_server() as server:
            with connect(server) as client:
                payload = client.stats()
                assert set(payload) >= {
                    "chunk_store", "io", "group_commit", "sessions",
                    "resilience",
                }
                assert payload["sessions"]["active_sessions"] == 1
                assert payload["sessions"]["max_sessions"] > 0
                resilience = payload["resilience"]
                assert set(resilience) >= {
                    "sessions_parked", "sessions_resumed", "resume_failures",
                    "grace_expired", "request_replays", "commit_replays",
                    "indoubt_hits", "indoubt_misses", "parked_sessions",
                    "resume_grace", "epoch", "commit_tokens",
                }
                assert resilience["epoch"] == server.epoch

    def test_garbage_frame_drops_the_connection(self):
        with running_server() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"\x00\x00\x00\x04haha")
                # The server cannot parse the frame and hangs up.
                assert sock.recv(4096) == b""


class TestHello:
    def test_new_client_vs_threaded_server(self):
        with running_server() as server:
            with connect(server) as client:
                info = client.hello()
                assert info["protocol"] == protocol.PROTOCOL_VERSION
                assert info["mode"] == "primary"
                assert "sharded" not in info and "shards" not in info
                assert "commit-tokens" in info["features"]
                assert info["absent_verbs"] == []
                assert client.hello() is info  # cached

    def test_old_client_needs_no_hello(self):
        """A v1 client never sends ``hello``; its raw frames work unchanged."""
        with running_server() as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                for frame in (
                    {"id": 1, "op": "begin", "mode": "object"},
                    {"id": 2, "op": "obj.put", "oid": None,
                     "value": {"legacy": True}},
                    {"id": 3, "op": "commit"},
                ):
                    protocol.write_frame(sock, frame)
                    response = protocol.read_frame(sock, 5.0, 5.0)
                    assert response["ok"], response
                    if frame["id"] == 2:
                        oid = response["result"]["oid"]
            with connect(server) as client:
                with client.transaction() as txn:
                    assert txn.get(oid) == {"legacy": True}


class TestTwoPhaseLockingOverTheWire:
    def _db(self):
        return Database.in_memory(
            object_config=ObjectStoreConfig(lock_timeout=0.2)
        )

    def test_write_write_conflict_surfaces_lock_timeout(self):
        with running_server(db=self._db()) as server:
            with connect(server) as alice, connect(server) as bob:
                with alice.transaction() as txn:
                    oid = txn.put({"owner": "nobody"})

                alice.call("begin", mode="object")
                alice.call("obj.put", oid=oid, value={"owner": "alice"})
                bob.call("begin", mode="object")
                with pytest.raises(LockTimeoutError):
                    bob.call("obj.put", oid=oid, value={"owner": "bob"})
                # Bob's transaction survived the refused lock; once Alice
                # commits (releasing her exclusive lock) Bob proceeds.
                alice.call("commit")
                bob.call("obj.put", oid=oid, value={"owner": "bob"})
                bob.call("commit")

                with alice.transaction() as txn:
                    assert txn.get(oid) == {"owner": "bob"}

    def test_reader_blocks_writer_until_commit(self):
        with running_server(db=self._db()) as server:
            with connect(server) as alice, connect(server) as bob:
                with alice.transaction() as txn:
                    oid = txn.put({"n": 1})
                alice.call("begin", mode="object")
                alice.call("obj.get", oid=oid)  # shared lock until commit
                bob.call("begin", mode="object")
                with pytest.raises(LockTimeoutError):
                    bob.call("obj.put", oid=oid, value={"n": 2})
                alice.call("commit")
                bob.call("obj.put", oid=oid, value={"n": 2})
                bob.call("commit")

    def test_deadlock_victim_is_transient_on_the_wire(self):
        """``col.get`` then ``col.insert`` from two sessions deadlocks on
        the shared-to-exclusive upgrade; the lock timeout that breaks it
        reaches a client that knows no class names as a retryable frame."""
        with running_server(db=self._db()) as server:
            with connect(server) as setup:
                with setup.transaction("collection") as ct:
                    ct.create_collection("plays", "k")
                    ct.insert("plays", {"k": 1})
            socks = [
                socket.create_connection(server.address, timeout=10.0)
                for _ in range(2)
            ]
            try:
                for sock in socks:
                    for frame in (
                        {"id": 1, "op": "begin", "mode": "collection"},
                        {"id": 2, "op": "col.get", "name": "plays", "key": 1},
                    ):
                        protocol.write_frame(sock, frame)
                        assert protocol.read_frame(sock, 10.0, 10.0)["ok"]
                # Both upgrade at once; neither can win until one times out.
                for sock in socks:
                    protocol.write_frame(sock, {
                        "id": 3, "op": "col.insert", "name": "plays",
                        "value": {"k": 2},
                    })
                responses = [protocol.read_frame(s, 10.0, 10.0) for s in socks]
            finally:
                for sock in socks:
                    sock.close()
            victims = [r for r in responses if not r["ok"]]
            assert victims, responses
            for victim in victims:
                assert victim["error"] == "LockTimeoutError"
                assert victim["transient"] is True


class TestBackpressure:
    def test_idle_timeout_aborts_and_releases_locks(self):
        config = BackpressureConfig(idle_timeout=0.3, request_timeout=5.0)
        db = Database.in_memory(object_config=ObjectStoreConfig(lock_timeout=2.0))
        with running_server(db=db, backpressure=config) as server:
            with connect(server) as alice:
                with alice.transaction() as txn:
                    oid = txn.put({"locked": "no"})
                alice.call("begin", mode="object")
                alice.call("obj.put", oid=oid, value={"locked": "by alice"})
                # Alice goes silent holding the exclusive lock.  The idle
                # timeout must abort her transaction so Bob's lock request
                # can be granted (well inside his 2 s lock budget).
                time.sleep(0.8)
                bob = connect(server).connect()
                bob.call("begin", mode="object")
                bob.call("obj.put", oid=oid, value={"locked": "by bob"})
                bob.call("commit")
                # Counted once, by admission control.
                stats = bob.stats()
                assert stats["sessions"]["timeout_aborts"] == 1
                assert "timeout_aborts" not in stats["resilience"]
                # Alice's uncommitted write is gone, and her connection too.
                with bob.transaction() as txn:
                    assert txn.get(oid) == {"locked": "by bob"}
                bob.close()
                with pytest.raises(TransientStoreError):
                    alice.call("stats")

    def test_admission_control_rejects_excess_sessions(self):
        config = BackpressureConfig(max_sessions=1)
        with running_server(backpressure=config) as server:
            with connect(server) as first:
                first.stats()  # the one slot is taken
                second = connect(server)
                with pytest.raises(ServerBusyError) as excinfo:
                    second.stats()
                # Transient by design: a retrying client is correct.
                assert isinstance(excinfo.value, ServerBusyError)
                second.close()
            # The slot frees once the first session drains.
            deadline = time.monotonic() + 5
            while True:
                try:
                    with connect(server) as third:
                        third.stats()
                    break
                except ServerBusyError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            assert server.admission.as_dict()["rejected_total"] >= 1

    def test_run_transaction_retries_transient_rejection(self):
        config = BackpressureConfig(max_sessions=1)
        with running_server(backpressure=config) as server:
            hog = connect(server).connect()
            hog.stats()

            def release_soon():
                time.sleep(0.3)
                hog.close()

            threading.Thread(target=release_soon, daemon=True).start()
            with connect(
                server, retry_policy=RetryPolicy(max_attempts=6, base_delay=0.05)
            ) as client:
                oid = client.run_transaction(
                    lambda txn: txn.put({"made": "it"}),
                    attempts=30,
                )
            assert isinstance(oid, int)


class TestGroupCommitAcceptance:
    """ISSUE 3 acceptance: with 32 concurrent clients the mean commit
    batch exceeds 2 and the store performs strictly fewer durable syncs
    and counter advances than transaction commits."""

    CLIENTS = 32
    TXNS_PER_CLIENT = 5

    def test_32_clients_amortize_syncs_and_counter_advances(self, monkeypatch):
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 0.05)
        db = Database.in_memory(chunk_config=ChunkStoreConfig(fsync=True))
        config = BackpressureConfig(max_sessions=64)
        with running_server(db=db, backpressure=config) as server:
            io_before = db.io_stats().snapshot()
            counter_before = db.stats().counter_value
            start = threading.Barrier(self.CLIENTS)
            failures = []

            def client_thread(i: int) -> None:
                try:
                    with connect(server, timeout=60) as client:
                        start.wait()
                        for n in range(self.TXNS_PER_CLIENT):
                            client.run_transaction(
                                lambda txn: txn.put({"client": i, "n": n}),
                                attempts=10,
                            )
                except Exception as exc:  # noqa: BLE001
                    failures.append((i, exc))

            threads = [
                threading.Thread(target=client_thread, args=(i,), daemon=True)
                for i in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "client thread hung"
            assert failures == [], f"clients failed: {failures[:3]}"

            commits = self.CLIENTS * self.TXNS_PER_CLIENT
            stats = db.group_commit.stats_snapshot()
            io_delta = db.io_stats().delta_since(io_before)
            counter_delta = db.stats().counter_value - counter_before

            assert stats.requests == commits
            assert stats.mean_batch_size > 2, stats.as_dict()
            # Strictly fewer durable syncs than commits: the whole point.
            assert 0 < io_delta.sync_calls < commits, io_delta
            # Strictly fewer anti-replay counter advances than commits.
            assert 0 < counter_delta < commits
            # And nothing was lost: every inserted object is readable.
            with connect(server) as client:
                payload = client.stats()
                assert payload["group_commit"]["batches"] == stats.batches


class TestProtocolUnit:
    def test_frame_roundtrip_and_limits(self):
        frame = protocol.encode_frame({"id": 1, "op": "stats"})
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"bad": object()})

    def test_exception_reconstruction(self):
        payload = protocol.error_payload(7, LockTimeoutError("lock busy"))
        assert payload == {
            "id": 7,
            "ok": False,
            "error": "LockTimeoutError",
            "message": "lock busy",
            # A deadlock victim: retrying after the winner ends succeeds.
            "transient": True,
        }
        exc = protocol.exception_from_payload(payload)
        assert isinstance(exc, LockTimeoutError)

        busy = protocol.error_payload(None, ServerBusyError("full"))
        assert busy["transient"] is True

        unknown = {"error": "NoSuchClass", "message": "m", "transient": True}
        assert isinstance(
            protocol.exception_from_payload(unknown), TransientStoreError
        )
