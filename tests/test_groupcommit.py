"""Group-commit coordinator: batching, fairness, and crash atomicity.

The unit tests pin the coordinator's contract (one chunk-store commit
per batch, no batching tax on a lone committer, guilty-member isolation,
bounded queue).  The sweep at the end enumerates every media-operation
boundary inside a genuinely merged 4-member batch commit and crashes at
each one: after recovery the batch must be all-or-nothing — either all
four members' chunks are present with their exact payloads, or none is —
and the pre-batch state must be intact either way.
"""

from __future__ import annotations

import statistics
import threading
import time
from functools import lru_cache
from unittest import mock

import pytest

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig
from repro.db import Database
from repro.errors import (
    ChunkNotFoundError,
    ChunkStoreError,
    ServerBusyError,
    TDBError,
)
from repro.platform import MemoryOneWayCounter, MemorySecretStore
from repro.objectstore import groupcommit
from repro.objectstore.groupcommit import MAX_PENDING, GroupCommitCoordinator
from repro.testing import FaultSchedule, FaultyUntrustedStore
from repro.testing.faults import InjectedCrash

_SECRET = b"groupcommit-test-secret-01234567"


def _config() -> ChunkStoreConfig:
    return ChunkStoreConfig(
        segment_size=4096,
        initial_segments=3,
        map_fanout=8,
        fsync=True,
    )


def _member_payload(i: int) -> bytes:
    # Same length for every member: the sweep's op boundaries then line
    # up regardless of which thread reaches the batch first.  Sized so
    # the 4-member merged record rolls the 4 KiB segments — the sweep
    # then crosses segment-header and master-record writes, not just the
    # single commit-record append.
    return (b"member-%d-" % i) * 110


def _fresh_store(schedule=None):
    untrusted = FaultyUntrustedStore(schedule=schedule)
    counter = MemoryOneWayCounter()
    store = ChunkStore.format(
        untrusted, MemorySecretStore(_SECRET), counter, _config()
    )
    return untrusted, counter, store


def _coordinator(store, writers: int) -> GroupCommitCoordinator:
    """A coordinator over ``store`` for ``writers`` open transactions,
    each of which leaves the count as it submits its commit."""
    coordinator = GroupCommitCoordinator(
        store, lambda: max(0, writers - coordinator.stats.requests)
    )
    return coordinator


def _run_merged_batch(coordinator, chunk_ids, payloads=None, durable=True):
    """Push one commit per chunk id through the coordinator, all at once.

    A coordinator built by :func:`_coordinator` for as many writers as
    members, a barrier and a 30 s window guarantee a single merged
    batch.  Returns the per-member
    exception list.
    """
    n = len(chunk_ids)
    payloads = payloads or [_member_payload(i) for i in range(n)]
    barrier = threading.Barrier(n)
    errors: list = [None] * n

    def worker(i: int) -> None:
        barrier.wait()
        try:
            coordinator.commit({chunk_ids[i]: payloads[i]}, durable=durable)
        except BaseException as exc:  # noqa: BLE001 — InjectedCrash included
            errors[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n)
    ]
    with mock.patch.object(groupcommit, "MAX_DELAY", 30.0):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "a committer never returned"
    return errors


def _two_records():
    """An in-memory database holding two committed records."""
    from repro.server.server import RemoteRecord

    db = Database.in_memory()
    db.register_class(RemoteRecord)
    with db.transaction() as txn:
        oids = tuple(txn.insert(RemoteRecord({"n": 0})) for _ in range(2))
    return db, oids


class TestBatching:
    def test_concurrent_commits_share_one_chunk_commit(self):
        untrusted, counter, store = _fresh_store()
        ids = [store.allocate_chunk_id() for _ in range(4)]
        coordinator = _coordinator(store, 4)

        commits_before = store.stats().commits_total
        syncs_before = untrusted.total_syncs
        counter_before = counter.read()

        errors = _run_merged_batch(coordinator, ids)
        assert errors == [None] * 4

        stats = coordinator.stats_snapshot()
        assert stats.requests == 4
        assert stats.batches == 1
        assert stats.batch_sizes == {4: 1}
        assert stats.max_batch_size == 4
        assert stats.mean_batch_size == 4.0

        # The whole batch cost exactly one chunk-store commit: the syncs
        # and the counter advanced as for ONE durable commit, not four.
        assert store.stats().commits_total == commits_before + 1
        assert counter.read() == counter_before + 1
        single_commit_syncs = untrusted.total_syncs - syncs_before
        assert single_commit_syncs >= 1

        for i, chunk_id in enumerate(ids):
            assert store.read(chunk_id) == _member_payload(i)
        store.close()

    def test_lone_committer_skips_the_batching_window(self, monkeypatch):
        untrusted, counter, store = _fresh_store()
        chunk_id = store.allocate_chunk_id()
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        coordinator = _coordinator(store, 1)  # nobody else to wait for

        started = time.monotonic()
        coordinator.commit({chunk_id: b"solo"}, durable=True)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, "a lone committer paid the batching delay"
        assert store.read(chunk_id) == b"solo"
        store.close()

    def test_quorum_seals_without_waiting_out_the_window(self):
        # 4 committers against MAX_BATCH=32: the batch can never
        # grow past 4, so the leader must seal the moment the 4th
        # member joins instead of sleeping MAX_DELAY (the 8-client
        # throughput dip).  The 30 s window makes the test fail loudly
        # if sealing regresses.
        untrusted, counter, store = _fresh_store()
        ids = [store.allocate_chunk_id() for _ in range(4)]
        coordinator = _coordinator(store, 4)

        started = time.monotonic()
        errors = _run_merged_batch(coordinator, ids)
        elapsed = time.monotonic() - started
        assert errors == [None] * 4
        assert elapsed < 5.0, "leader waited out MAX_DELAY despite a full quorum"

        stats = coordinator.stats_snapshot()
        assert stats.batches == 1
        assert stats.quorum_seals == 1
        assert stats.batch_sizes == {4: 1}
        store.close()

    def test_empty_commit_is_a_noop(self):
        untrusted, counter, store = _fresh_store()
        coordinator = GroupCommitCoordinator(store, lambda: 0)
        coordinator.commit({}, deallocs=())
        assert coordinator.stats_snapshot().requests == 0
        store.close()

    def test_guilty_member_does_not_poison_the_batch(self):
        untrusted, counter, store = _fresh_store()
        good_id = store.allocate_chunk_id()
        bad_id = 999_999  # never allocated: the chunk store rejects it
        coordinator = _coordinator(store, 2)

        errors = _run_merged_batch(
            coordinator, [good_id, bad_id], payloads=[b"good", b"bad"]
        )
        assert errors[0] is None, f"innocent member failed: {errors[0]}"
        assert isinstance(errors[1], ChunkStoreError)
        assert store.read(good_id) == b"good"
        stats = coordinator.stats_snapshot()
        assert stats.failed_batches == 1
        assert stats.individual_retries == 1
        store.close()

    def test_full_queue_rejects_with_transient_busy(self):
        untrusted, counter, store = _fresh_store()
        chunk_id = store.allocate_chunk_id()
        coordinator = GroupCommitCoordinator(store, lambda: 0)
        with coordinator._mutex:
            coordinator._pending = MAX_PENDING
        with pytest.raises(ServerBusyError):
            coordinator.commit({chunk_id: b"x"})
        assert coordinator.stats_snapshot().rejected == 1
        with coordinator._mutex:
            coordinator._pending = 0
        coordinator.commit({chunk_id: b"x"})  # back under the bound
        store.close()

    def test_closed_coordinator_refuses_commits(self):
        untrusted, counter, store = _fresh_store()
        chunk_id = store.allocate_chunk_id()
        coordinator = GroupCommitCoordinator(store, lambda: 0)
        coordinator.close()
        with pytest.raises(ServerBusyError):
            coordinator.commit({chunk_id: b"x"})
        store.close()


class TestDatabaseIntegration:
    def test_every_stack_commits_through_its_coordinator(self, tmp_path):
        from repro.server.server import RemoteRecord

        directory = str(tmp_path / "db")
        for opener in (
            Database.in_memory,
            lambda: Database.create(directory),
            lambda: Database.open_existing(directory),
        ):
            db = opener()
            db.register_class(RemoteRecord)
            coordinator = db.group_commit
            assert coordinator is db.object_store.group_commit
            with db.transaction() as txn:
                txn.insert(RemoteRecord({"n": 1}))
            assert coordinator.stats_snapshot().requests == 1
            assert db.object_store.writers == 0
            db.close()

    def test_embedded_threads_share_one_chunk_commit(self, monkeypatch):
        # Two threads that each hold a write transaction commit at once:
        # the store counts both writers, so the first waits for the
        # second and the pair costs one chunk-store commit.
        from repro.server.server import RemoteRecord

        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        db = Database.in_memory()
        db.register_class(RemoteRecord)
        commits_before = db.stats().commits_total
        written = threading.Barrier(3)
        go = threading.Barrier(3)

        def writer(i):
            txn = db.transaction()
            txn.insert(RemoteRecord({"thread": i}))
            written.wait()
            go.wait()
            txn.commit()

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        written.wait(timeout=10)
        assert db.object_store.writers == 2
        started = time.monotonic()
        go.wait(timeout=10)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "a committer never returned"
        assert time.monotonic() - started < 5.0, "the batch waited out its window"
        assert db.stats().commits_total == commits_before + 1
        assert db.group_commit.stats_snapshot().batch_sizes == {2: 1}
        assert db.object_store.writers == 0
        db.close()

    def test_writer_blocked_on_the_leaders_lock_does_not_hold_its_batch(
        self, monkeypatch
    ):
        # A holds x; B holds y and then waits for x.  B cannot commit
        # before A does, so A's batch must not wait for it: a writer
        # waiting for a lock is not one a batch can wait for.
        from repro.server.server import RemoteRecord

        db, (x, y) = _two_records()
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        a = db.transaction()
        a.open_writable(x).deref().value["n"] = 1
        b_locked = threading.Event()

        def b_run():
            b = db.transaction()
            b.open_writable(y).deref().value["n"] = 2
            b_locked.set()
            b.open_writable(x).deref().value["n"] = 3  # waits for A
            b.commit()

        b_thread = threading.Thread(target=b_run)
        b_thread.start()
        b_locked.wait(timeout=10)
        wait_until(lambda: db.object_store.locks._changed._waiters)
        assert db.object_store.writers == 2  # B is open, but cannot join
        started = time.monotonic()
        a.commit()
        assert time.monotonic() - started < 2.0, "A waited for a blocked writer"
        b_thread.join(timeout=30)
        assert not b_thread.is_alive()
        assert db.object_store.writers == 0
        with db.transaction() as txn:
            assert txn.open_readonly(x).deref().value["n"] == 3
        db.close()

    def test_aborted_writer_wakes_the_waiting_leader(self, monkeypatch):
        # A's batch waits for B, a writer that can still join; when B
        # aborts instead, the leader is woken and seals at once.
        db, (x, y) = _two_records()
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        written = threading.Barrier(2)
        elapsed = []

        def a_run():
            a = db.transaction()
            a.open_writable(x).deref().value["n"] = 1
            written.wait()
            started = time.monotonic()
            a.commit()
            elapsed.append(time.monotonic() - started)

        a_thread = threading.Thread(target=a_run)
        a_thread.start()
        b = db.transaction()
        b.open_writable(y).deref().value["n"] = 2
        written.wait(timeout=10)
        wait_until(lambda: db.group_commit.stats_snapshot().requests == 2)
        b.abort()
        a_thread.join(timeout=30)
        assert not a_thread.is_alive()
        assert elapsed and elapsed[0] < 2.0, "the leader waited out its window"
        assert db.object_store.writers == 0
        db.close()

    def test_a_flushing_batch_does_not_hold_the_next(self, monkeypatch):
        # A late writer arrives while a pair's batch is committing.  Its
        # batch stays open until that commit ends, then seals at once:
        # the pair's members can join no other batch, so nobody is left
        # to wait for.
        from repro.server.server import RemoteRecord

        db, (x, y) = _two_records()
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        coordinator = db.group_commit
        chunk_commit = db.chunk_store.commit
        entered, release = threading.Event(), threading.Event()

        def slow_commit(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return chunk_commit(*args, **kwargs)

        monkeypatch.setattr(coordinator.chunk_store, "commit", slow_commit)
        written = threading.Barrier(3)

        def writer(oid):
            txn = db.transaction()
            txn.open_writable(oid).deref().value["n"] = oid
            written.wait()
            txn.commit()

        pair = [threading.Thread(target=writer, args=(oid,)) for oid in (x, y)]
        for thread in pair:
            thread.start()
        written.wait(timeout=10)
        entered.wait(timeout=10)  # the pair's batch is committing
        late = db.transaction()
        late.insert(RemoteRecord({"late": True}))
        late_thread = threading.Thread(target=late.commit)
        late_thread.start()
        wait_until(lambda: coordinator.stats_snapshot().requests == 4)
        released = time.monotonic()
        release.set()
        late_thread.join(timeout=30)
        assert time.monotonic() - released < 2.0, "the late batch waited out its window"
        for thread in pair:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert coordinator.stats_snapshot().batch_sizes == {1: 2, 2: 1}
        db.close()

    def test_one_thread_with_two_write_transactions_does_not_wait(
        self, monkeypatch
    ):
        # The second transaction belongs to the committing thread, which
        # is blocked in this commit: it cannot join, so nothing waits.
        db, (x, y) = _two_records()
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        first, second = db.transaction(), db.transaction()
        first.open_writable(x).deref().value["n"] = 1
        second.open_writable(y).deref().value["n"] = 2
        assert db.object_store.writers == 2
        started = time.monotonic()
        first.commit()
        second.commit()
        assert time.monotonic() - started < 2.0, "a commit waited for its own thread"
        assert db.object_store.writers == 0
        db.close()

    def test_commit_after_close_raises_the_closed_store_error(self):
        # Not the transient ServerBusyError: retrying cannot succeed.
        from repro.server.server import RemoteRecord

        db = Database.in_memory()
        db.register_class(RemoteRecord)
        txn = db.transaction()
        txn.insert(RemoteRecord({"n": 1}))
        db.close()
        with pytest.raises(ChunkStoreError, match="closed") as info:
            txn.commit()
        assert not isinstance(info.value, ServerBusyError)

    def test_database_close_is_idempotent_and_thread_safe(self):
        db = Database.in_memory()
        errors = []

        def closer():
            try:
                db.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
        db.close()  # still fine afterwards


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def commit_p50_ms(client, transactions: int) -> float:
    """Median wall time of ``commit`` over one-put transactions."""
    samples = []
    for n in range(transactions):
        client.call("begin", mode="object")
        client.call("obj.put", oid=None, value={"n": n})
        started = time.perf_counter()
        client.call("commit")
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


class TestServedQuorum:
    def test_idle_connection_does_not_hold_a_batch_open(self, monkeypatch):
        # Only open write transactions count toward the quorum.  A
        # connection that never begins one (a stats poller, a replica
        # follower, a proof client) cannot join a batch, so a lone
        # writer beside it must not wait out the 10 s window.
        from repro.server import TdbClient, TdbServer

        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        db = Database.in_memory()
        server = TdbServer(db).start()
        try:
            with TdbClient(*server.address) as idle, \
                    TdbClient(*server.address) as writer:
                idle.hello()
                writer.call("begin", mode="object")
                writer.call("obj.put", oid=None, value={"n": 1})
                started = time.monotonic()
                writer.call("commit")
                elapsed = time.monotonic() - started
                assert elapsed < 2.0, "the commit waited for an idle connection"
                assert db.object_store.writers == 0
        finally:
            server.stop()
            db.close()

    def test_reader_does_not_hold_a_writers_commit(self, monkeypatch):
        # A read-only session runs begin/get/commit beside a writer.  It
        # holds no exclusive lock, so it is not a writer and no batch
        # waits for it: with a 50 ms window any wait would dwarf the
        # writer's commit time alone.
        from repro.server import TdbClient, TdbServer

        monkeypatch.setattr(groupcommit, "MAX_DELAY", 0.05)
        db = Database.in_memory(chunk_config=ChunkStoreConfig(fsync=True))
        server = TdbServer(db).start()
        stop = threading.Event()
        try:
            with TdbClient(*server.address) as writer:
                oid = writer.run_transaction(lambda txn: txn.put({"n": 0}))
                alone = commit_p50_ms(writer, 30)

                def read_loop():
                    with TdbClient(*server.address) as reader:
                        while not stop.is_set():
                            with reader.transaction() as txn:
                                txn.get(oid)

                thread = threading.Thread(target=read_loop, daemon=True)
                thread.start()
                beside = commit_p50_ms(writer, 30)
                stop.set()
                thread.join(timeout=10)
            assert beside < 2.0 or beside < 2 * alone, (alone, beside)
        finally:
            stop.set()
            server.stop()
            db.close()

    def test_quorum_counts_write_transactions_and_returns_to_zero(self):
        # More sessions than cores begin, write, commit and leave at
        # once, with a short switch interval: a lost update would leave
        # the count off zero.  A reader, and a writer still waiting for
        # its first exclusive lock, are not counted; a writer that parks
        # and is resumed by a fresh connection keeps its one place.
        import socket
        import struct
        import sys

        from repro.server import BackpressureConfig, TdbClient, TdbServer, protocol

        db = Database.in_memory()
        server = TdbServer(
            db, backpressure=BackpressureConfig(resume_grace=5.0)
        ).start()
        store = db.object_store
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def writer(i):
                with TdbClient(*server.address) as client:
                    for n in range(5):
                        with client.transaction() as txn:
                            txn.put({"writer": i, "n": n})

            threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a writer never finished"
            wait_until(lambda: server.admission.active == 0)
            assert store.writers == 0
        finally:
            sys.setswitchinterval(interval)

        def rpc(sock, op, **params):
            protocol.write_frame(sock, {"id": 1, "op": op, **params})
            return protocol.read_frame(sock, 10.0, 10.0)

        try:
            with TdbClient(*server.address) as holder, \
                    TdbClient(*server.address) as waiter:
                holder.call("begin", mode="object")
                oid = holder.call("obj.put", oid=None, value={"n": 0})["oid"]
                waiter.call("begin", mode="object")
                assert store.writers == 1  # a begun reader is no writer
                blocked = threading.Thread(
                    target=waiter.call,
                    args=("obj.put",),
                    kwargs={"oid": oid, "value": {"n": 1}},
                )
                blocked.start()
                wait_until(lambda: store.locks._changed._waiters)
                assert store.writers == 1  # still waiting for its lock
                holder.call("commit")
                blocked.join(timeout=10)
                assert store.writers == 1  # the lock was granted
                waiter.call("commit")
            assert store.writers == 0

            dropped = socket.create_connection(server.address, timeout=10.0)
            token = rpc(dropped, "begin", mode="object")["result"]["session"]
            assert rpc(dropped, "obj.put", oid=None, value={"n": 2})["ok"]
            assert store.writers == 1
            dropped.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            dropped.close()
            wait_until(
                lambda: server.core.resilience_snapshot()["parked_sessions"] == 1
            )
            assert store.writers == 1
            with socket.create_connection(server.address, timeout=10.0) as sock:
                assert rpc(sock, "session.resume", session=token)["ok"]
                assert store.writers == 1
                assert rpc(sock, "commit")["ok"]
                assert store.writers == 0
            wait_until(lambda: server.admission.active == 0)
            assert store.writers == 0
        finally:
            server.stop()
            db.close()


# ---------------------------------------------------------------------------
# Crash-during-group-commit sweep
# ---------------------------------------------------------------------------

_SETUP_PAYLOADS = {0: b"setup-zero" * 8, 1: b"setup-one-" * 8}


def _batched_workload(schedule=None):
    """Setup commit, then a 4-member merged batch over a faulty medium.

    Returns everything a sweep point needs to judge the aftermath:
    the medium, the (trusted, surviving) counter, the chunk ids, the
    per-member outcomes, and the (writes, syncs) marker taken right
    before the batch.
    """
    untrusted, counter, store = _fresh_store(schedule)
    setup_ids = [store.allocate_chunk_id() for _ in range(2)]
    store.commit(
        {setup_ids[i]: _SETUP_PAYLOADS[i] for i in range(2)}, durable=True
    )
    marker = (untrusted.total_writes, untrusted.total_syncs)
    batch_ids = [store.allocate_chunk_id() for _ in range(4)]
    coordinator = _coordinator(store, 4)
    errors = _run_merged_batch(coordinator, batch_ids)
    return untrusted, counter, setup_ids, batch_ids, errors, marker


@lru_cache(maxsize=None)
def _profile():
    """(write points, torn points, sync points) of the batch commit."""
    untrusted, _, _, _, errors, (w0, s0) = _batched_workload()
    assert errors == [None] * 4
    w1, s1 = untrusted.total_writes, untrusted.total_syncs
    write_points = list(range(w0 + 1, w1 + 1))
    torn_points = [
        (index, nbytes)
        for index in write_points
        for kind, _name, nbytes in [untrusted.op_log[index - 1]]
        if kind == "write" and nbytes >= 2
    ]
    sync_points = list(range(s0 + 1, s1 + 1))
    assert write_points, "the batch commit performed no media writes?"
    return write_points, torn_points, sync_points


def _sweep_point(schedule: FaultSchedule) -> None:
    untrusted, counter, setup_ids, batch_ids, errors, _ = _batched_workload(
        schedule
    )
    assert untrusted.crashed, "the scheduled crash point never fired"
    # Every member of the merged batch observed the crash — nobody got a
    # false success or a spurious library error.
    for error in errors:
        assert isinstance(error, InjectedCrash), f"unexpected outcome: {error!r}"

    untrusted.heal()
    store = ChunkStore.open(
        untrusted, MemorySecretStore(_SECRET), counter, _config()
    )
    present = 0
    for i, chunk_id in enumerate(batch_ids):
        try:
            data = store.read(chunk_id)
        except (ChunkNotFoundError, TDBError):
            continue
        assert data == _member_payload(i)
        present += 1
    assert present in (0, 4), (
        f"torn batch after recovery: {present}/4 members survived"
    )
    # The committed pre-batch state is never collateral damage.
    for i, chunk_id in enumerate(setup_ids):
        assert store.read(chunk_id) == _SETUP_PAYLOADS[i]
    store.close()


def _write_param_ids():
    return [pytest.param(i, id=f"write{i}") for i in _profile()[0]]


def _torn_param_ids():
    return [
        pytest.param(i, n, id=f"torn{i}") for i, n in _profile()[1]
    ]


def _sync_param_ids():
    return [pytest.param(i, id=f"sync{i}") for i in _profile()[2]]


class TestCrashDuringGroupCommit:
    """All-or-nothing at every operation boundary of a merged batch."""

    @pytest.mark.parametrize("index", _write_param_ids())
    def test_crash_after_write(self, index):
        _sweep_point(FaultSchedule().crash_after_write(index))

    @pytest.mark.parametrize("index,nbytes", _torn_param_ids())
    def test_torn_write(self, index, nbytes):
        _sweep_point(FaultSchedule().crash_mid_write(index, nbytes // 2))

    @pytest.mark.parametrize("index", _sync_param_ids())
    def test_crash_after_sync(self, index):
        _sweep_point(FaultSchedule().crash_after_sync(index))
