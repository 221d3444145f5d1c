"""Idempotent commit tokens, session parking/resume, and the
crash-during-commit sweep.

The cache unit tests pin the token lifecycle and both eviction bounds.
The server tests drive parking and resume over real sockets (an
abortive close stands in for a dying network).  The sweep at the end
crashes the media at every write/sync boundary *inside* a tokened
commit and checks the exactly-once contract end to end: the client is
told the truth (*in doubt*, never a false "committed" or a false "safe
to retry"), and after heal-and-recover the reconciled state converges
to exactly one application of the transaction.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import time
from functools import lru_cache

import pytest

from repro.config import (
    ChunkStoreConfig,
    CollectionStoreConfig,
    ObjectStoreConfig,
)
from repro.db import Database
from repro.errors import (
    CommitInDoubtError,
    LockTimeoutError,
    SessionStateError,
    TDBError,
    TransientStoreError,
)
from repro.platform import (
    MemoryArchivalStore,
    MemoryOneWayCounter,
    MemorySecretStore,
)
from repro.server import BackpressureConfig, TdbClient, TdbServer
from repro.server.commitcache import CommitResultCache
from repro.testing import FaultSchedule, FaultyUntrustedStore
from repro.testing.faults import InjectedCrash


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCommitResultCache:
    def test_token_lifecycle_and_replay(self):
        cache = CommitResultCache(clock=FakeClock())
        assert cache.begin("t") is None           # fresh: caller owns it
        assert cache.begin("t")["status"] == "pending"
        cache.resolve(
            "t",
            {
                "status": "failed",
                "error": "LockTimeoutError",
                "message": "contended",
                "transient": False,
            },
        )
        view = cache.begin("t")                    # a re-sent commit
        assert view["status"] == "failed"
        assert view["error"] == "LockTimeoutError"
        assert cache.replays == 1                  # pending hits don't count
        assert cache.lookup("t")["status"] == "failed"
        assert cache.lookup("never-seen")["status"] == "unknown"
        assert cache.result_misses == 1

    def test_cancel_retracts_only_a_pending_claim(self):
        cache = CommitResultCache(clock=FakeClock())
        assert cache.begin("u") is None
        cache.cancel("u")                          # commit never started
        assert cache.begin("u") is None            # token not poisoned
        cache.resolve("u", {"status": "committed", "durable": True})
        cache.cancel("u")                          # no-op on resolved
        assert cache.lookup("u")["status"] == "committed"

    def test_resolve_rejects_non_terminal_status(self):
        cache = CommitResultCache(clock=FakeClock())
        with pytest.raises(ValueError):
            cache.resolve("t", {"status": "pending"})

    def test_ttl_eviction_measured_from_the_outcome(self):
        clock = FakeClock()
        cache = CommitResultCache(ttl=10.0, clock=clock)
        cache.begin("t")
        clock.now = 8.0
        cache.resolve("t", {"status": "committed", "durable": True})
        clock.now = 17.0                           # 9s after the outcome
        assert cache.lookup("t")["status"] == "committed"
        clock.now = 18.1                           # 10.1s after the outcome
        assert cache.lookup("t")["status"] == "unknown"
        assert cache.evicted_ttl == 1

    def test_capacity_eviction_drops_oldest_resolved_first(self):
        clock = FakeClock()
        cache = CommitResultCache(max_entries=3, ttl=100.0, clock=clock)
        for token in ("a", "b", "c", "d"):
            cache.begin(token)
            cache.resolve(token, {"status": "committed", "durable": True})
        assert cache.lookup("a")["status"] == "unknown"
        assert cache.lookup("d")["status"] == "committed"
        assert cache.evicted_capacity == 1
        assert len(cache) == 3

    def test_pending_entries_survive_capacity_pressure(self):
        clock = FakeClock()
        cache = CommitResultCache(max_entries=2, ttl=100.0, clock=clock)
        cache.begin("inflight-1")
        cache.begin("x")
        cache.resolve("x", {"status": "committed", "durable": True})
        cache.begin("inflight-2")
        cache.begin("inflight-3")  # forces an evict pass over 3 entries
        assert "x" not in cache._entries           # resolved went first
        assert "inflight-1" in cache._entries      # pending spared
        assert cache.evicted_capacity == 1

    def test_oldest_pending_goes_when_nothing_resolved_remains(self):
        cache = CommitResultCache(max_entries=2, ttl=100.0, clock=FakeClock())
        for token in ("p1", "p2", "p3", "p4"):
            cache.begin(token)
        assert list(cache._entries) == ["p2", "p3", "p4"]
        assert cache.evicted_capacity == 1

    def test_full_cache_eviction_cost_is_independent_of_size(self):
        # Once full, every tokened commit evicts one entry.  That must
        # cost the same in a cache holding 50k tokens as in one holding
        # 64, not a pass over every token held.
        def best_churn_seconds(max_entries: int) -> float:
            cache = CommitResultCache(
                max_entries=max_entries, ttl=1e9, clock=FakeClock()
            )
            outcome = {"status": "committed", "durable": True}
            for i in range(max_entries):
                cache.begin(f"fill-{i}")
                cache.resolve(f"fill-{i}", outcome)
            timings = []
            for round_ in range(5):
                started = time.perf_counter()
                for i in range(2000):
                    token = f"churn-{round_}-{i}"
                    cache.begin(token)
                    cache.resolve(token, outcome)
                timings.append(time.perf_counter() - started)
            assert len(cache) == max_entries
            return min(timings)

        small = best_churn_seconds(64)
        large = best_churn_seconds(50_000)
        assert large < 10 * small, (small, large)


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


def abort_connection(client: TdbClient) -> None:
    """Kill the client's socket with an RST — the wire's view of a
    vanished peer, which is what makes the server park the session."""
    sock, client._sock = client._sock, None
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


def wait_for(predicate, timeout=5.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


class TestTokenedCommitVerbs:
    def test_resent_commit_token_replays_instead_of_reexecuting(self):
        with running_server() as server:
            with connect(server) as client:
                client.call("begin", mode="object")
                oid = client.call("obj.put", oid=None, value={"n": 1})["oid"]
                first = client.call("commit", durable=True, token="tok-1")
                assert "replayed" not in first
                # The ack was "lost"; the client re-sends the commit.
                second = client.call("commit", durable=True, token="tok-1")
                assert second["replayed"] is True
                assert second["durable"] is True
                payload = client.resolve_commit("tok-1")
                assert payload["status"] == "committed"
                assert payload["epoch"] == server.epoch
                # Applied exactly once.
                client.call("begin", mode="object")
                assert client.call("obj.get", oid=oid)["value"] == {"n": 1}
                client.call("commit")
                stats = client.stats()["resilience"]
                assert stats["commit_replays"] == 1
                assert stats["commit_tokens"]["replays"] == 1

    def test_commit_without_transaction_cancels_the_token(self):
        with running_server() as server:
            with connect(server) as client:
                with pytest.raises(SessionStateError):
                    client.call("commit", token="ghost")
                # The claim was retracted, not left dangling as pending.
                assert client.resolve_commit("ghost")["status"] == "unknown"

    def test_commit_result_requires_a_string_token(self):
        from repro.errors import ProtocolError

        with running_server() as server:
            with connect(server) as client:
                with pytest.raises(ProtocolError):
                    client.call("commit.result", token=7)


class TestSessionParking:
    GRACE = BackpressureConfig(resume_grace=5.0, idle_timeout=30.0)

    def test_dropped_session_parks_and_resumes_with_locks_intact(self):
        db = Database.in_memory(
            object_config=ObjectStoreConfig(lock_timeout=0.2)
        )
        with running_server(db=db, backpressure=self.GRACE) as server:
            client = connect(server)
            begin = client.call("begin", mode="object")
            token = begin["session"]
            oid = client.call("obj.put", oid=None, value={"stage": 1})["oid"]
            abort_connection(client)
            wait_for(
                lambda: server.stats_payload()["resilience"]["parked_sessions"] == 1,
                message="the dropped session never parked",
            )

            # The parked transaction still owns its write lock.
            with connect(server) as rival:
                rival.call("begin", mode="object")
                with pytest.raises(LockTimeoutError):
                    rival.call("obj.put", oid=oid, value={"stage": "rival"})
                rival.call("abort")

            with connect(server) as successor:
                resumed = successor.call("session.resume", session=token)
                assert resumed == {
                    "resumed": True,
                    "txn_open": True,
                    "mode": "object",
                    "epoch": server.epoch,
                }
                successor.call("obj.put", oid=oid, value={"stage": 2})
                successor.call("commit")
                successor.call("begin", mode="object")
                assert successor.call("obj.get", oid=oid)["value"] == {
                    "stage": 2
                }
                successor.call("commit")
                resilience = successor.stats()["resilience"]
            assert resilience["sessions_parked"] == 1
            assert resilience["sessions_resumed"] == 1
            assert resilience["parked_sessions"] == 0

    def test_resume_token_is_single_use(self):
        with running_server(backpressure=self.GRACE) as server:
            client = connect(server)
            token = client.call("begin", mode="object")["session"]
            abort_connection(client)
            wait_for(
                lambda: server.stats_payload()["resilience"]["parked_sessions"] == 1,
                message="the dropped session never parked",
            )
            with connect(server) as successor:
                assert successor.call("session.resume", session=token)["resumed"]
                with connect(server) as impostor:
                    with pytest.raises(SessionStateError):
                        impostor.call("session.resume", session=token)
                successor.call("abort")

    def test_grace_expiry_aborts_and_releases_locks(self):
        config = BackpressureConfig(resume_grace=0.25, idle_timeout=30.0)
        db = Database.in_memory(
            object_config=ObjectStoreConfig(lock_timeout=2.0)
        )
        with running_server(db=db, backpressure=config) as server:
            setup = connect(server)
            setup.call("begin", mode="object")
            oid = setup.call("obj.put", oid=None, value={"v": 1})["oid"]
            setup.call("commit")
            token = setup.call("begin", mode="object")["session"]
            setup.call("obj.put", oid=oid, value={"v": "doomed"})
            abort_connection(setup)
            wait_for(
                lambda: server.stats_payload()["resilience"]["grace_expired"] >= 1,
                message="the parked session never expired",
            )
            with connect(server) as client:
                with pytest.raises(SessionStateError):
                    client.call("session.resume", session=token)
                # The expired transaction was aborted: lock free, write gone.
                client.call("begin", mode="object")
                assert client.call("obj.get", oid=oid)["value"] == {"v": 1}
                client.call("obj.put", oid=oid, value={"v": 2})
                client.call("commit")
            resilience = server.stats_payload()["resilience"]
            assert resilience["grace_expired"] >= 1
            assert resilience["resume_failures"] >= 1

    def test_zero_grace_disables_parking(self):
        config = BackpressureConfig(resume_grace=0.0)
        with running_server(backpressure=config) as server:
            client = connect(server)
            token = client.call("begin", mode="object")["session"]
            abort_connection(client)
            time.sleep(0.2)
            assert server.stats_payload()["resilience"]["sessions_parked"] == 0
            with connect(server) as successor:
                with pytest.raises(SessionStateError):
                    successor.call("session.resume", session=token)


# ---------------------------------------------------------------------------
# Crash-during-commit sweep
# ---------------------------------------------------------------------------

_SECRET = b"commit-token-crash-secret-012345"
_TOKEN = "crash-sweep-token"


@contextlib.contextmanager
def _quiet_injected_crashes():
    """Session threads die of InjectedCrash by design here; keep their
    tracebacks out of the test output."""
    original = threading.excepthook

    def hook(args):
        if not (
            args.exc_type is not None
            and issubclass(args.exc_type, InjectedCrash)
        ):
            original(args)

    threading.excepthook = hook
    try:
        yield
    finally:
        threading.excepthook = original


def _crash_db(untrusted, counter, archival, fresh):
    return Database._assemble(
        untrusted,
        MemorySecretStore(_SECRET),
        counter,
        archival,
        ChunkStoreConfig(fsync=True),
        ObjectStoreConfig(),
        CollectionStoreConfig(),
        None,
        fresh=fresh,
    )


def _tokened_workload(schedule=None):
    """Begin, put, bind — then a tokened commit over the faulty medium.

    Returns the pieces a sweep point judges: the medium, the surviving
    trusted state, whether the commit was acknowledged, the error (if
    any), and the server epoch the client began under.
    """
    untrusted = FaultyUntrustedStore(schedule=schedule)
    counter = MemoryOneWayCounter()
    archival = MemoryArchivalStore()
    db = _crash_db(untrusted, counter, archival, fresh=True)
    server = TdbServer(db).start()
    epoch = server.epoch
    client = connect(
        server, retry_delay=0.02, resolve_timeout=0.6, resume_sessions=False
    )
    acknowledged = False
    error = None
    marker = None
    try:
        client.call("begin", mode="object")
        oid = client.call("obj.put", oid=None, value={"marker": "crash"})["oid"]
        client.call("name.bind", name="crash-marker", oid=oid)
        marker = (untrusted.total_writes, untrusted.total_syncs)
        try:
            client.call("commit", durable=True, token=_TOKEN)
            acknowledged = True
        except TDBError as exc:
            error = exc
    finally:
        if error is not None:
            # The client is in doubt: commit.result must say *pending*
            # (the crash interrupted the commit, nobody resolved it),
            # and settling must end in CommitInDoubtError — never a
            # false "committed" and never a false "safe to retry".
            assert client.resolve_commit(_TOKEN)["status"] == "pending"
            with pytest.raises(CommitInDoubtError):
                client._settle_commit(_TOKEN, epoch, error)
        client.close()
        with contextlib.suppress(BaseException):
            server.stop()
        with contextlib.suppress(BaseException):
            db.close()
    return untrusted, counter, archival, acknowledged, error, epoch, marker


@lru_cache(maxsize=None)
def _commit_profile():
    """(write points, sync points) of the tokened commit itself."""
    untrusted, _, _, acknowledged, error, _, marker = _tokened_workload()
    assert acknowledged and error is None
    w0, s0 = marker
    write_points = list(range(w0 + 1, untrusted.total_writes + 1))
    sync_points = list(range(s0 + 1, untrusted.total_syncs + 1))
    assert write_points, "the commit performed no media writes?"
    assert sync_points, "a durable commit performed no syncs?"
    return write_points, sync_points


def _sweep_point(schedule: FaultSchedule) -> None:
    with _quiet_injected_crashes():
        untrusted, counter, archival, acknowledged, error, epoch, _ = (
            _tokened_workload(schedule)
        )
    assert untrusted.crashed, "the scheduled crash point never fired"
    # Late points fire after durability (the commit was acknowledged
    # before the medium died); early points leave the client in doubt.
    if not acknowledged:
        assert isinstance(error, TransientStoreError), f"unexpected: {error!r}"

    # Power back on: heal the medium, recover, serve under a NEW epoch.
    untrusted.heal()
    db = _crash_db(untrusted, counter, archival, fresh=False)
    with running_server(db=db) as server:
        assert server.epoch != epoch
        with connect(server) as client:
            # The restarted server has honestly lost the token cache:
            # unknown + changed epoch = in doubt, not safe-to-retry.
            payload = client.resolve_commit(_TOKEN)
            assert payload["status"] == "unknown"
            assert payload["epoch"] != epoch
            if not acknowledged:
                with pytest.raises(CommitInDoubtError):
                    client._settle_commit(_TOKEN, epoch, error)

            # Reconciliation: the on-disk truth is all-or-nothing.
            client.call("begin", mode="object")
            oid = client.call("name.lookup", name="crash-marker")["oid"]
            if oid is not None:
                value = client.call("obj.get", oid=oid)["value"]
                assert value == {"marker": "crash"}
            client.call("commit")
            if acknowledged:
                # An acknowledged commit must survive recovery: a lost-
                # but-reported-committed transaction is the one outcome
                # the protocol may never produce.
                assert oid is not None, "acked commit vanished on recovery"

            # Converge: re-apply only if the commit provably never
            # landed; afterwards the marker exists exactly once.
            if oid is None:
                with client.transaction() as txn:
                    txn.bind("crash-marker", txn.put({"marker": "crash"}))
            client.call("begin", mode="object")
            final = client.call("name.lookup", name="crash-marker")["oid"]
            assert final is not None
            assert client.call("obj.get", oid=final)["value"] == {
                "marker": "crash"
            }
            client.call("commit")


def _write_params():
    return [pytest.param(i, id=f"write{i}") for i in _commit_profile()[0]]


def _sync_params():
    return [pytest.param(i, id=f"sync{i}") for i in _commit_profile()[1]]


class TestCrashDuringTokenedCommit:
    """Every media boundary inside a tokened commit, end to end."""

    @pytest.mark.parametrize("index", _write_params())
    def test_crash_after_write(self, index):
        _sweep_point(FaultSchedule().crash_after_write(index))

    @pytest.mark.parametrize("index", _sync_params())
    def test_crash_after_sync(self, index):
        _sweep_point(FaultSchedule().crash_after_sync(index))
