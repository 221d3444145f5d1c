"""The sharded service: layout, routing, virtual oids, cross-shard 2PC,
worker crash recovery, and the protocol-version handshake.

Every test runs real worker *processes* behind the asyncio front door —
nothing is mocked — so the suite doubles as the integration harness for
the multi-process commit protocol.  The crash sweep at the bottom kills
a worker at every two-phase-commit boundary and asserts the acceptance
invariant: all-or-nothing, zero duplicate commits.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    LockTimeoutError,
    ObjectNotFoundError,
    ProtocolError,
    ServerError,
    SessionStateError,
    TDBError,
    TransientStoreError,
)
from repro.server import (
    BackpressureConfig,
    ShardedTdbServer,
    ShardLayout,
    TdbClient,
    TdbServer,
)
from repro.server import protocol
from repro.server.coordinator import CommitStage
from repro.server.sharding import decode_oid, encode_oid, shard_of_key


@contextlib.contextmanager
def sharded_server(tmp_path, shards=2, **kwargs):
    kwargs.setdefault(
        "backpressure",
        BackpressureConfig(
            idle_timeout=15.0, request_timeout=10.0, resume_grace=1.5
        ),
    )
    server = ShardedTdbServer(str(tmp_path / "db"), shards=shards, **kwargs)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def connect(server, **kwargs) -> TdbClient:
    host, port = server.address
    kwargs.setdefault("timeout", 10.0)
    return TdbClient(host, port, **kwargs)


# ---------------------------------------------------------------------------
# Pure routing / layout units (no processes involved)
# ---------------------------------------------------------------------------

class TestShardingPrimitives:
    def test_virtual_oid_round_trip(self):
        for shards in (1, 2, 4, 7):
            for local in (0, 1, 17, 123456):
                for shard in range(shards):
                    void = encode_oid(local, shard, shards)
                    assert decode_oid(void, shards) == (local, shard)

    def test_virtual_oids_are_disjoint_across_shards(self):
        seen = set()
        for local in range(64):
            for shard in range(4):
                seen.add(encode_oid(local, shard, 4))
        assert len(seen) == 64 * 4

    def test_key_routing_is_stable_and_bounded(self):
        for key in ("alpha", "beta", "__2pc:ledger", "", "café"):
            first = shard_of_key(key, 4)
            assert 0 <= first < 4
            assert shard_of_key(key, 4) == first

    def test_layout_pins_the_shard_count(self, tmp_path):
        root = str(tmp_path / "db")
        ShardLayout.create(root, 3)
        assert ShardLayout.open(root).shards == 3
        assert ShardLayout.open_or_create(root, 3).shards == 3
        with pytest.raises(ServerError, match="created with 3"):
            ShardLayout.open(root, shards=4)

    def test_layout_refuses_unsharded_directory(self, tmp_path):
        root = tmp_path / "db"
        (root / "data").mkdir(parents=True)
        with pytest.raises(ServerError, match="unsharded"):
            ShardLayout.create(str(root), 2)


# ---------------------------------------------------------------------------
# Data path through real worker processes
# ---------------------------------------------------------------------------

class TestShardedDataPath:
    def test_object_round_trip_and_names(self, tmp_path):
        with sharded_server(tmp_path) as server:
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

    def test_inserts_land_on_both_shards(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oids = [txn.put({"i": i}) for i in range(8)]
                shards_hit = {decode_oid(oid, 2)[1] for oid in oids}
                assert shards_hit == {0, 1}, "round-robin placement broke"
                with client.transaction() as txn:
                    for i, oid in enumerate(oids):
                        assert txn.get(oid) == {"i": i}

    def test_collections_live_wholly_on_one_shard(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction("collection") as ct:
                    ct.create_collection("tracks", "title", unique=True)
                    for title in ("a", "b", "c"):
                        ct.insert("tracks", {"title": title})
                with client.transaction("collection") as ct:
                    rows = ct.iterate("tracks")
                    assert [r["title"] for r in rows] == ["a", "b", "c"]
                    assert ct.get_match("tracks", "b")[0]["title"] == "b"

    def test_cross_shard_abort_is_atomic(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with pytest.raises(RuntimeError):
                    with client.transaction() as txn:
                        for i in range(4):  # touches both shards
                            txn.put({"doomed": i})
                        raise RuntimeError("bail out")
                with client.transaction() as txn:
                    oids = [txn.put({"kept": i}) for i in range(4)]
                with client.transaction() as txn:
                    for oid in oids:
                        assert "kept" in txn.get(oid)

    def test_restart_preserves_all_shards(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oids = [txn.put({"i": i}) for i in range(6)]
                    txn.bind("anchor", oids[0])
        # Reopen the same layout: shard count comes from the manifest.
        server = ShardedTdbServer(str(tmp_path / "db"))
        server.start()
        try:
            with connect(server) as client:
                with client.transaction() as txn:
                    assert txn.lookup("anchor") == oids[0]
                    for i, oid in enumerate(oids):
                        assert txn.get(oid) == {"i": i}
        finally:
            server.stop()

    def test_strict_2pl_conflicts_surface_as_lock_timeouts(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as c1, connect(server) as c2:
                with c1.transaction() as txn:
                    oid = txn.put({"v": 0})
                with c1.transaction() as txn1:
                    txn1.put({"v": 1}, oid=oid)  # exclusive lock held
                    with pytest.raises((LockTimeoutError, TransientStoreError)):
                        with c2.transaction() as txn2:
                            txn2.put({"v": 2}, oid=oid)
                            txn2.commit()
                with c1.transaction() as txn:
                    assert txn.get(oid)["v"] == 1

    def test_mode_mismatch_and_no_txn_errors_match_threaded(self, tmp_path):
        with sharded_server(tmp_path) as server:
            with connect(server) as client:
                with pytest.raises(SessionStateError, match="no open transaction"):
                    client.call("obj.get", oid=1)
                with client.transaction("collection"):
                    with pytest.raises(SessionStateError, match="needs a object"):
                        client.call("obj.get", oid=1)


# ---------------------------------------------------------------------------
# hello / protocol-version negotiation (both directions)
# ---------------------------------------------------------------------------

class TestHello:
    def test_new_client_vs_threaded_server(self):
        from repro.db import Database

        db = Database.in_memory()
        server = TdbServer(db).start()
        try:
            with connect(server) as client:
                info = client.hello()
                assert info["protocol"] == protocol.PROTOCOL_VERSION
                assert info["sharded"] is False
                assert info["shards"] == 1
                assert "commit-tokens" in info["features"]
                assert client.hello() is info  # cached
        finally:
            server.stop()
            db.close()

    def test_new_client_vs_sharded_server(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                info = client.hello()
                assert info["protocol"] == protocol.PROTOCOL_VERSION
                assert info["sharded"] is True
                assert info["shards"] == 2
                assert "cross-shard-commit" in info["features"]

    def test_old_client_needs_no_hello(self, tmp_path):
        """A v1 client never sends ``hello``; raw v1 frames must work
        against both server modes unchanged."""

        def v1_conversation(address):
            sock = socket.create_connection(address, timeout=5.0)
            try:
                for i, frame in enumerate(
                    [
                        {"id": 1, "op": "begin", "mode": "object"},
                        {"id": 2, "op": "obj.put", "oid": None,
                         "value": {"legacy": True}},
                        {"id": 3, "op": "commit"},
                    ]
                ):
                    protocol.write_frame(sock, frame)
                    response = protocol.read_frame(sock, 5.0, 5.0)
                    assert response["ok"], response
                    if i == 1:
                        oid = response["result"]["oid"]
                return oid
            finally:
                sock.close()

        with sharded_server(tmp_path) as server:
            oid = v1_conversation(server.address)
            with connect(server) as client:
                with client.transaction() as txn:
                    assert txn.get(oid) == {"legacy": True}

        from repro.db import Database

        db = Database.in_memory()
        threaded = TdbServer(db).start()
        try:
            v1_conversation(threaded.address)
        finally:
            threaded.stop()
            db.close()


# ---------------------------------------------------------------------------
# Worker crash: transient surfacing, respawn, session resume
# ---------------------------------------------------------------------------

class TestWorkerCrash:
    def wait_for_respawn(self, server, shard, old_pid, deadline=15.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            pid = server.worker_pid(shard)
            if pid is not None and pid != old_pid:
                return pid
            time.sleep(0.05)
        raise AssertionError(f"shard {shard} worker never respawned")

    def test_kill_between_txns_is_invisible_after_respawn(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oids = [txn.put({"i": i}) for i in range(4)]
                victim = decode_oid(oids[0], 2)[1]
                old_pid = server.worker_pid(victim)
                server.kill_worker(victim)
                self.wait_for_respawn(server, victim, old_pid)

                def check(txn):
                    for i, oid in enumerate(oids):
                        assert txn.get(oid) == {"i": i}

                client.run_transaction(check, attempts=6)

    def test_kill_mid_txn_poisons_then_retry_succeeds(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                attempts = {"n": 0}

                def work(txn):
                    attempts["n"] += 1
                    oid = txn.put({"attempt": attempts["n"]})
                    if attempts["n"] == 1:
                        shard = decode_oid(oid, 2)[1]
                        old_pid = server.worker_pid(shard)
                        server.kill_worker(shard)
                        self.wait_for_respawn(server, shard, old_pid)
                    txn.bind("survivor", oid)
                    return oid

                oid = client.run_transaction(work, attempts=6)
                assert attempts["n"] >= 2, "first attempt should have failed"
                with client.transaction() as txn:
                    assert txn.lookup("survivor") == oid
                resilience = client.stats()["resilience"]
                assert resilience["worker_restarts"] >= 1
                assert resilience["poisoned_sessions"] >= 1


# ---------------------------------------------------------------------------
# The acceptance crash sweep: kill a worker at every 2PC boundary
# ---------------------------------------------------------------------------

def name_for_shard(shard, shards=2, prefix="mark"):
    """A name whose hash routes to ``shard``."""
    i = 0
    while True:
        name = f"{prefix}:{i}"
        if shard_of_key(name, shards) == shard:
            return name
        i += 1


def put_on_both_shards(txn):
    """Write one object and bind one name per shard, so the commit is
    cross-shard and carries a catalog mutation on each participant —
    the sweep then also proves recovered *catalog* state survives, not
    just fresh object chunks."""
    oids = [txn.put({"n": i}) for i in range(2)]
    by_shard = {decode_oid(oid, 2)[1]: oid for oid in oids}
    assert set(by_shard) == {0, 1}
    for shard, oid in sorted(by_shard.items()):
        txn.bind(name_for_shard(shard), oid)
    return oids


SWEEP_STAGES = [
    (CommitStage.BEFORE_PREPARE, 0),
    (CommitStage.BEFORE_PREPARE, 1),
    (CommitStage.AFTER_PREPARE, 0),
    (CommitStage.AFTER_PREPARE, 1),
    (CommitStage.BEFORE_DECISION, None),
    (CommitStage.AFTER_DECISION, None),
    (CommitStage.BEFORE_DECIDE, 0),
    (CommitStage.BEFORE_DECIDE, 1),
    (CommitStage.AFTER_DECIDE, 0),
]


class TestCrossShardCrashSweep:
    """Kill one worker at each commit boundary; the outcome must be
    all-or-nothing with zero duplicates, and the retried client must
    converge to exactly one commit."""

    @pytest.mark.parametrize("stage,stage_shard", SWEEP_STAGES)
    def test_kill_at_boundary_is_all_or_nothing(
        self, tmp_path, stage, stage_shard
    ):
        with sharded_server(tmp_path, shards=2) as server:
            fired = {"done": False}

            def hook(hook_stage, token, shard):
                if fired["done"] or hook_stage != stage:
                    return
                if stage_shard is not None and shard != stage_shard:
                    return
                fired["done"] = True
                # Kill the stage's shard (or shard 0 for the global
                # decision boundaries, where shard is None).
                server.kill_worker(shard if shard is not None else 0)

            server.on_stage = hook
            with connect(server, resolve_timeout=10.0) as client:
                marker_oids = client.run_transaction(
                    put_on_both_shards, attempts=8
                )
                assert fired["done"], f"stage {stage} never fired"
            server.on_stage = None

            # Judge over a clean connection after workers settle: the
            # committed transaction must be fully present on both
            # shards, exactly once per shard.
            with connect(server) as judge:

                def verify(txn):
                    values = sorted(
                        txn.get(oid)["n"] for oid in marker_oids
                    )
                    assert values == [0, 1]
                    for oid in marker_oids:
                        shard = decode_oid(oid, 2)[1]
                        assert txn.lookup(name_for_shard(shard)) == oid

                judge.run_transaction(verify, attempts=8)
                stats = judge.stats()
            commits = stats["resilience"]["cross_shard_commits"]
            assert commits >= 1
            for shard, payload in stats["per_shard"].items():
                assert payload is not None, f"shard {shard} still down"

    def test_recovered_bind_survives_later_catalog_write(self, tmp_path):
        """A name bound in a commit that was recovered from a redo
        record must survive a *later* catalog write on the same shard:
        the respawned worker's cached catalog (populated while opening
        the ledger) must not be re-committed over the recovered state."""
        with sharded_server(tmp_path, shards=2) as server:
            fired = {"done": False}

            def hook(stage, token, shard):
                # Decision logged, shard 1 killed before its decide: the
                # respawned worker replays the redo record — including
                # its name bind — straight into the chunk store.
                if (
                    not fired["done"]
                    and stage == CommitStage.BEFORE_DECIDE
                    and shard == 1
                ):
                    fired["done"] = True
                    server.kill_worker(1)

            server.on_stage = hook
            with connect(server, resolve_timeout=10.0) as client:
                oids = client.run_transaction(put_on_both_shards, attempts=8)
                assert fired["done"]
            server.on_stage = None
            with connect(server) as client:
                # A later, unrelated catalog write on each shard: with a
                # stale cached catalog this would silently erase the
                # recovered bind when the stale copy is re-committed.
                def later_binds(txn):
                    for oid in oids:
                        shard = decode_oid(oid, 2)[1]
                        assert txn.lookup(name_for_shard(shard)) == oid
                        txn.bind(name_for_shard(shard, prefix="later"), oid)

                client.run_transaction(later_binds, attempts=8)

                def verify(txn):
                    for oid in oids:
                        shard = decode_oid(oid, 2)[1]
                        assert txn.lookup(name_for_shard(shard)) == oid
                        assert txn.lookup(
                            name_for_shard(shard, prefix="later")
                        ) == oid

                client.run_transaction(verify, attempts=8)

    def test_abandoned_prepare_resolves_by_presumed_abort(self, tmp_path):
        """A prepare whose coordinator never logs a decision must abort
        at respawn — the redo record may not leak into the store."""
        with sharded_server(tmp_path, shards=2) as server:
            killed = {"done": False}

            def hook(stage, token, shard):
                # After shard 0 prepared, kill shard 1 *before* its
                # prepare: the round aborts with no decision record.
                if (
                    not killed["done"]
                    and stage == CommitStage.BEFORE_PREPARE
                    and shard == 1
                ):
                    killed["done"] = True
                    server.kill_worker(1)

            server.on_stage = hook
            with connect(server, resolve_timeout=10.0) as client:
                oids = client.run_transaction(put_on_both_shards, attempts=8)
                assert killed["done"]
            server.on_stage = None
            with connect(server) as judge:

                def verify(txn):
                    assert sorted(txn.get(o)["n"] for o in oids) == [0, 1]

                judge.run_transaction(verify, attempts=8)


# ---------------------------------------------------------------------------
# Single-shard commit tokens: truthful settlement from the worker ledger
# ---------------------------------------------------------------------------

class TestSingleShardTokenSettlement:
    """A worker death during a forwarded single-shard commit must not
    strand the client in-doubt: the commit token rides the write set
    into the worker's durable ledger, so the respawned worker's state
    answers the true outcome."""

    def test_death_after_durable_commit_settles_as_committed(self, tmp_path):
        """Worker exits between the durable commit and the ack: the
        front door consults the recovered ledger and reports success —
        a blind retry here would double-apply the update."""
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server, timeout=30.0, resolve_timeout=20.0) as client:
                with client.transaction() as txn:
                    oid = txn.put({"v": 1})
                shard = decode_oid(oid, 2)[1]
                server.inject_worker_fault(shard, "exit_after_commit")
                calls = {"n": 0}

                def bump(txn):
                    calls["n"] += 1
                    txn.put({"v": txn.get(oid)["v"] + 1}, oid=oid)

                client.run_transaction(bump, attempts=6)
                assert calls["n"] == 1, "durable commit must not be retried"
                with client.transaction() as txn:
                    assert txn.get(oid)["v"] == 2  # exactly once
            with connect(server) as judge:
                resilience = judge.stats()["resilience"]
            assert resilience["commit_settlements"] >= 1
            assert resilience["worker_restarts"] >= 1

    def test_death_before_durable_commit_settles_as_retry(self, tmp_path):
        """Worker dies with the commit accepted but not yet applied: the
        token is absent from the ledger, so the front door reports a
        retryable failure (not in-doubt forever) and the retry lands
        exactly once."""
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server, timeout=30.0, resolve_timeout=20.0) as client:
                attempts = {"n": 0}

                def work(txn):
                    attempts["n"] += 1
                    oid = txn.put({"attempt": attempts["n"]})
                    if attempts["n"] == 1:
                        shard = decode_oid(oid, 2)[1]
                        pid = server.worker_pid(shard)
                        # Freeze the worker so the commit frame is never
                        # processed, then kill it mid-flight.
                        os.kill(pid, signal.SIGSTOP)
                        timer = threading.Timer(
                            0.5, os.kill, args=(pid, signal.SIGKILL)
                        )
                        timer.daemon = True
                        timer.start()
                    return oid

                oid = client.run_transaction(work, attempts=6)
                assert attempts["n"] >= 2, "first commit cannot have landed"
                with client.transaction() as txn:
                    assert txn.get(oid)["attempt"] == attempts["n"]
            with connect(server) as judge:
                resilience = judge.stats()["resilience"]
            assert resilience["commit_settlements"] >= 1


# ---------------------------------------------------------------------------
# Decision-log bounds and the one-front-door guard
# ---------------------------------------------------------------------------

class TestDecisionLogBounds:
    def test_done_marks_prune_and_compaction_bounds_the_file(self, tmp_path):
        from repro.server.coordinator import DecisionLog

        path = str(tmp_path / "coord" / "decisions.log")
        log = DecisionLog(path, compact_every=4)
        for i in range(8):
            log.record_commit(f"tok{i}", [0, 1])
        for i in range(8):
            log.mark_done(f"tok{i}")
        # Every decision acknowledged: the live map is empty and the
        # second compaction rewrote the file down to nothing.
        assert log._decisions == {}
        assert os.path.getsize(path) == 0
        # Recently acknowledged tokens stay answerable until compaction.
        log.record_commit("pending", [0])
        log.record_commit("acked", [1])
        log.mark_done("acked")
        assert log.committed("acked")
        assert log.committed("pending")
        assert not log.committed("never-seen")
        log.close()
        # Reload: pending decisions survive, acknowledged ones are not
        # re-driven at any shard.
        log2 = DecisionLog(path, compact_every=4)
        assert log2.committed("pending")
        assert log2.pending_for_shard(0) == ["pending"]
        assert log2.pending_for_shard(1) == []
        log2.close()


class TestSingleWriterGuard:
    def test_second_front_door_on_same_layout_is_refused(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            dup = ShardedTdbServer(str(tmp_path / "db"), shards=2)
            with pytest.raises(ServerError, match="already served"):
                dup.start()
            # The refusal must not have broken the live server.
            with connect(server) as client:
                with client.transaction() as txn:
                    txn.put({"still": "serving"})
        # A clean stop releases the layout for the next server.
        server2 = ShardedTdbServer(str(tmp_path / "db"))
        server2.start()
        try:
            with connect(server2) as client:
                with client.transaction() as txn:
                    txn.put({"again": True})
        finally:
            server2.stop()


# ---------------------------------------------------------------------------
# Resilience plumbing: parking/resume and unsupported verbs
# ---------------------------------------------------------------------------

class TestFrontDoorResilience:
    def test_dropped_connection_parks_and_resumes(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    oid = txn.put({"v": 1})
                    # Sever the TCP connection under the client with an
                    # RST (a clean FIN would read as a deliberate close);
                    # the session parks server-side with its worker txns,
                    # and the client's next call trips over the dead
                    # socket and transparently resumes.
                    client._sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    client._sock.close()
                    assert txn.get(oid) == {"v": 1}  # resumes + replays
                assert client.counters["session_resumes"] >= 1
                with client.transaction() as txn:
                    assert txn.get(oid) == {"v": 1}
            stats_client = connect(server)
            with stats_client:
                resilience = stats_client.stats()["resilience"]
            assert resilience["sessions_parked"] >= 1
            assert resilience["sessions_resumed"] >= 1

    def test_unsupported_verbs_fail_cleanly(self, tmp_path):
        with sharded_server(tmp_path) as server:
            with connect(server) as client:
                with pytest.raises(ServerError, match="unavailable"):
                    client.call("repl.master")
                with pytest.raises(ServerError, match="unavailable"):
                    client.call("log.head")
                with pytest.raises(ProtocolError, match="unknown verb"):
                    client.call("no.such.verb")

    def test_stats_aggregates_every_shard(self, tmp_path):
        with sharded_server(tmp_path, shards=2) as server:
            with connect(server) as client:
                with client.transaction() as txn:
                    txn.put({"x": 1})
                stats = client.stats()
            assert stats["sharded"] is True
            assert stats["shards"] == 2
            assert set(stats["per_shard"]) == {"0", "1"}
            for payload in stats["per_shard"].values():
                assert payload["chunk_store"]["live_bytes"] >= 0
                assert "counters" in payload
            assert "single_shard_commits" in stats["resilience"]
            assert stats["sessions"]["max_sessions"] > 0


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

class TestServeShardsCli:
    def test_serve_shards_round_trip(self, tmp_path):
        from repro.tools import serve_sharded_database

        ready = threading.Event()
        stop = threading.Event()
        bound = {}

        def on_ready(host, port):
            bound["address"] = (host, port)
            ready.set()

        thread = threading.Thread(
            target=serve_sharded_database,
            args=(str(tmp_path / "db"), "127.0.0.1", 0, 2),
            kwargs={"ready_callback": on_ready, "stop_event": stop},
            daemon=True,
        )
        thread.start()
        try:
            assert ready.wait(timeout=60.0), "server never became ready"
            with TdbClient(*bound["address"], timeout=10.0) as client:
                assert client.hello()["shards"] == 2
                with client.transaction() as txn:
                    oid = txn.put({"cli": True})
                with client.transaction() as txn:
                    assert txn.get(oid) == {"cli": True}
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
