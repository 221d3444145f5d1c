"""Exactly-once over a hostile network: the verb × fault chaos sweep.

A :class:`~repro.testing.netfaults.ChaosProxy` sits between client and
server and injects one scheduled fault per case — dropping, truncating,
delaying, trickling, or duplicating exact protocol frames.  The
invariant under every fault, for every verb, is the acceptance bar from
the issue: the client either observes the committed state or a clean
abort — never a double commit, never a lost-but-reported-committed
transaction, never a hang.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time

import pytest

from repro.config import ChunkStoreConfig
from repro.db import Database
from repro.errors import TDBError, TransientStoreError
from repro.platform.resilient import RetryPolicy
from repro.replication import ReplicaApplier
from repro.server import BackpressureConfig, TdbClient, TdbServer
from repro.testing import ChaosProxy, NetFaultSchedule


@contextlib.contextmanager
def chaos_rig(
    schedule=None,
    *,
    resume_grace: float = 1.5,
    request_timeout: float = 10.0,
    idle_timeout: float = 30.0,
):
    """An in-memory server with a fault-injecting proxy in front of it."""
    db = Database.in_memory()
    server = TdbServer(
        db,
        backpressure=BackpressureConfig(
            idle_timeout=idle_timeout,
            request_timeout=request_timeout,
            resume_grace=resume_grace,
        ),
    ).start()
    proxy = ChaosProxy(*server.address, schedule=schedule).start()
    try:
        yield server, proxy
    finally:
        proxy.stop()
        server.stop()
        db.close()


def create_events(server) -> None:
    """Set up the counting collection over a direct (fault-free) link."""
    with TdbClient(*server.address) as direct:
        with direct.transaction("collection") as ct:
            ct.create_collection("events", "k")


def count_markers(server, marker: str) -> int:
    """How many times the marker landed — the double-commit detector."""
    with TdbClient(*server.address) as direct:
        with direct.transaction("collection") as ct:
            return len(ct.get_match("events", marker))


def proxied_client(proxy, **kwargs) -> TdbClient:
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("retry_policy", RetryPolicy(base_delay=0.02))
    kwargs.setdefault("resolve_timeout", 4.0)
    return TdbClient(*proxy.address, **kwargs)


# The scripted transaction is always: begin (frame 1), col.insert
# (frame 2), commit (frame 3) — on the first proxied connection.
VERB_FRAMES = {"begin": 1, "col.insert": 2, "commit": 3}

FAULTS = ["drop_before", "drop_after", "truncate", "delay", "duplicate"]


def schedule_fault(schedule, fault: str, connection: int, frame: int):
    if fault == "drop_before":
        return schedule.drop_before(connection, frame)
    if fault == "drop_after":
        return schedule.drop_after(connection, frame)
    if fault == "truncate":
        return schedule.truncate(connection, frame, keep=6)
    if fault == "delay":
        return schedule.delay(connection, frame, 0.2)
    if fault == "duplicate":
        return schedule.duplicate(connection, frame)
    raise AssertionError(f"unknown fault {fault!r}")


def run_case(schedule, marker: str, **client_kwargs):
    """One sweep case: insert the marker through the proxy, then judge.

    Returns ``(outcome, count, elapsed)`` where outcome is "committed"
    or the raised error, and count is the marker's multiplicity as seen
    over a clean connection.
    """
    with chaos_rig(schedule) as (server, proxy):
        create_events(server)
        started = time.monotonic()
        try:
            with proxied_client(proxy, **client_kwargs) as client:
                client.run_transaction(
                    lambda ct: ct.insert("events", {"k": marker}),
                    mode="collection",
                    attempts=6,
                )
            outcome = "committed"
        except TDBError as exc:
            outcome = exc
        elapsed = time.monotonic() - started
        assert schedule.fired(), "the scheduled fault never fired"
        # Give any parked leftover its grace window before counting, so
        # the verification read does not race the reaper for locks.
        deadline = time.monotonic() + 8.0
        while True:
            try:
                count = count_markers(server, marker)
                break
            except TDBError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
        return outcome, count, elapsed


class TestVerbFaultSweep:
    """Every verb of the scripted transaction under every fault."""

    @pytest.mark.parametrize("verb", sorted(VERB_FRAMES))
    @pytest.mark.parametrize("fault", FAULTS)
    def test_exactly_once_under_fault(self, verb, fault):
        marker = f"sweep-{verb}-{fault}"
        schedule = schedule_fault(
            NetFaultSchedule(), fault, 1, VERB_FRAMES[verb]
        )
        outcome, count, elapsed = run_case(schedule, marker)
        assert elapsed < 20.0, f"{verb}×{fault} took {elapsed:.1f}s (hang?)"
        assert count in (0, 1), (
            f"{verb}×{fault}: double commit — marker present {count} times"
        )
        if outcome == "committed":
            assert count == 1, (
                f"{verb}×{fault}: reported committed but marker is gone"
            )
        else:
            assert count == 0, (
                f"{verb}×{fault}: reported {outcome!r} but marker landed"
            )
        # With session resume and commit tokens every single-fault case
        # must actually converge to a commit.
        assert outcome == "committed", f"{verb}×{fault} failed: {outcome!r}"

    # Object-mode scripted transaction: begin (1), obj.put (2),
    # obj.get (3), name.bind (4), commit (5).
    OBJ_FRAMES = {"obj.put": 2, "obj.get": 3}

    @pytest.mark.parametrize("verb", sorted(OBJ_FRAMES))
    @pytest.mark.parametrize("fault", FAULTS)
    def test_object_verbs_under_fault(self, verb, fault):
        marker = f"obj-{verb}-{fault}"
        schedule = schedule_fault(
            NetFaultSchedule(), fault, 1, self.OBJ_FRAMES[verb]
        )
        with chaos_rig(schedule) as (server, proxy):
            with TdbClient(*server.address) as direct:
                with direct.transaction() as txn:
                    seed_oid = txn.put({"seed": True})

            def work(txn):
                oid = txn.put({"marker": marker})
                assert txn.get(seed_oid) == {"seed": True}
                txn.bind(marker, oid)

            started = time.monotonic()
            with proxied_client(proxy) as client:
                client.run_transaction(work, attempts=6)
            elapsed = time.monotonic() - started
            assert elapsed < 20.0, f"{verb}×{fault} took {elapsed:.1f}s"
            assert schedule.fired(), "the scheduled fault never fired"
            with TdbClient(*server.address) as direct:
                with direct.transaction() as txn:
                    oid = txn.lookup(marker)
                    assert oid is not None, (
                        f"{verb}×{fault}: committed but the binding is gone"
                    )
                    assert txn.get(oid) == {"marker": marker}

    @pytest.mark.parametrize("fault", FAULTS)
    def test_commit_result_under_fault(self, fault):
        """Sever the commit ack, then fault the ``commit.result`` poll.

        Resume is disabled so recovery must go through the commit-token
        path: connection 2's first frame is the ``commit.result`` query,
        and the fault lands on exactly that frame.
        """
        marker = f"resolve-{fault}"
        schedule = NetFaultSchedule().drop_after(1, VERB_FRAMES["commit"])
        schedule_fault(schedule, fault, 2, 1)
        outcome, count, elapsed = run_case(
            schedule, marker, resume_sessions=False
        )
        assert elapsed < 20.0, f"commit.result×{fault} took {elapsed:.1f}s"
        assert outcome == "committed", (
            f"commit.result×{fault} failed: {outcome!r}"
        )
        assert count == 1, (
            f"commit.result×{fault}: marker present {count} times"
        )


class TestAcceptance:
    def test_severed_commit_ack_resolves_to_committed_exactly_once(self):
        """The issue's acceptance case: the connection dies *after* the
        commit is durable but before the acknowledgement arrives.  The
        client must learn ``committed`` through ``commit.result`` and
        the effects must be visible exactly once."""
        schedule = NetFaultSchedule().drop_after(1, VERB_FRAMES["commit"])
        with chaos_rig(schedule) as (server, proxy):
            create_events(server)
            with proxied_client(proxy, resume_sessions=False) as client:
                with client.transaction("collection") as ct:
                    ct.insert("events", {"k": "severed"})
                # The context manager returned normally: the client
                # settled the in-doubt commit through the token.
                assert client.counters["indoubt_queries"] >= 1
                assert client.counters["indoubt_committed"] == 1
            assert count_markers(server, "severed") == 1
            with TdbClient(*server.address) as direct:
                resilience = direct.stats()["resilience"]
            assert resilience["indoubt_hits"] >= 1

    def test_midtxn_drop_resumes_the_parked_session(self):
        """A drop between operations parks the session server-side; the
        client resumes it and the transaction commits once."""
        schedule = NetFaultSchedule().drop_after(1, VERB_FRAMES["col.insert"])
        with chaos_rig(schedule) as (server, proxy):
            create_events(server)
            with proxied_client(proxy) as client:
                with client.transaction("collection") as ct:
                    ct.insert("events", {"k": "resumed"})
                assert client.counters["session_resumes"] == 1
            assert count_markers(server, "resumed") == 1
            with TdbClient(*server.address) as direct:
                resilience = direct.stats()["resilience"]
            assert resilience["sessions_parked"] >= 1
            assert resilience["sessions_resumed"] >= 1
            # The in-flight insert was *replayed from the response
            # cache*, not executed twice.
            assert resilience["request_replays"] >= 1


class TestSlowLoris:
    def test_trickled_frame_hits_the_absolute_deadline(self):
        """A frame dribbling in one byte at a time must be cut off by
        ``request_timeout`` measured from its first byte — per-read
        timeout resets would let it dribble forever."""
        schedule = NetFaultSchedule().trickle(
            1, VERB_FRAMES["col.insert"], chunk=1, interval=0.15
        )
        with chaos_rig(
            schedule, request_timeout=0.5, idle_timeout=5.0, resume_grace=0.0
        ) as (server, proxy):
            create_events(server)
            with proxied_client(proxy, resume_sessions=False) as client:
                client.call("begin", mode="collection")
                started = time.monotonic()
                with pytest.raises(TransientStoreError):
                    client.call(
                        "col.insert", name="events", value={"k": "loris"}
                    )
                elapsed = time.monotonic() - started
            # The full trickle would take many seconds; the absolute
            # deadline must fire at ~request_timeout instead.
            assert elapsed < 3.0, f"slow-loris survived {elapsed:.1f}s"
            assert schedule.fired()
            assert count_markers(server, "loris") == 0
            # The strangled session's slot was released.
            deadline = time.monotonic() + 5.0
            while server.admission.active > 0:
                assert time.monotonic() < deadline, "session slot leaked"
                time.sleep(0.05)

    def test_blackhole_connection_is_bounded_by_the_client_timeout(self):
        schedule = NetFaultSchedule().blackhole(1)
        with chaos_rig(schedule) as (server, proxy):
            with proxied_client(
                proxy, timeout=0.75, resume_sessions=False
            ) as client:
                started = time.monotonic()
                with pytest.raises(TransientStoreError):
                    client.call("begin", mode="object")
                elapsed = time.monotonic() - started
            assert elapsed < 3.0, f"blackhole hung the client {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Replication under network faults
# ---------------------------------------------------------------------------

CHUNK = ChunkStoreConfig(
    segment_size=8192, checkpoint_residual_bytes=8192, initial_segments=4
)


def _populate(server, count=12, start=0):
    with TdbClient(*server.address) as client:
        with client.transaction() as txn:
            for i in range(start, start + count):
                oid = txn.put({"n": i, "pad": "x" * 300})
                txn.bind(f"obj-{i}", oid)


class TestReplicationFaults:
    def test_subscribe_sweep_then_convergence(self, tmp_path):
        """``repl.subscribe`` under each fault: failed polls surface as
        transient errors, clean polls converge the replica."""
        pdir = os.path.join(str(tmp_path), "primary")
        db = Database.create(pdir, CHUNK)
        server = TdbServer(db).start()
        try:
            _populate(server)
            rdir = os.path.join(str(tmp_path), "replica")
            os.makedirs(rdir, exist_ok=True)
            shutil.copy(
                os.path.join(pdir, "secret.key"),
                os.path.join(rdir, "secret.key"),
            )
            # One proxy, one fault per connection: each failed sync drops
            # the link, so the next attempt arrives as a new connection.
            schedule = (
                NetFaultSchedule()
                .drop_before(1, 1)
                .drop_after(2, 1)
                .truncate(3, 1, keep=6)
                .delay(4, 1, 0.2)
            )
            with ChaosProxy(*server.address, schedule=schedule) as proxy:
                with ReplicaApplier(
                    rdir, *proxy.address, chunk_config=CHUNK
                ) as applier:
                    failures = 0
                    for _ in range(3):  # the three killed connections
                        with pytest.raises(TDBError):
                            applier.sync_once()
                        failures += 1
                    assert failures == 3
                    # Connection 4 only delays the subscribe: the sync
                    # must ride it out and install the shipment.
                    assert applier.sync_once() is True
                    assert applier.sync_once() is False  # up to date
                assert len(schedule.fired()) == 4
            master = db.chunk_store.master_io.load_latest()
            from repro.replication import open_replica_database

            rdb = open_replica_database(rdir, CHUNK)
            try:
                replica = rdb.chunk_store.master_io.load_latest()
                assert replica.root == master.root
            finally:
                rdb.close()
        finally:
            server.stop()
            db.close()

    def test_follow_mode_survives_a_primary_restart(self, tmp_path):
        """Kill the primary mid-follow, restart it on the same port with
        new data: the applier must back off (link_failures > 0), then
        re-subscribe and converge."""
        pdir = os.path.join(str(tmp_path), "primary")
        db = Database.create(pdir, CHUNK)
        server = TdbServer(db).start()
        host, port = server.address
        _populate(server)
        rdir = os.path.join(str(tmp_path), "replica")
        os.makedirs(rdir, exist_ok=True)
        shutil.copy(
            os.path.join(pdir, "secret.key"),
            os.path.join(rdir, "secret.key"),
        )
        applier = ReplicaApplier(
            rdir,
            host,
            port,
            chunk_config=CHUNK,
            poll_interval=0.05,
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay=0.05, max_delay=0.25, jitter=0.25
            ),
        )
        applier.start()
        try:
            deadline = time.monotonic() + 15.0
            while applier.stats_snapshot()["shipments_applied"] < 1:
                assert time.monotonic() < deadline, "first shipment never landed"
                time.sleep(0.05)

            # Flap the link: the primary goes away entirely.
            server.stop()
            db.close()
            while applier.stats_snapshot()["link_failures"] < 2:
                assert time.monotonic() < deadline, "no link failures recorded"
                time.sleep(0.05)
            flapped = applier.stats_snapshot()
            assert flapped["consecutive_failures"] >= 1
            assert flapped["last_backoff"] > 0.0

            # Same port, fresh process state (new shipper, new epoch).
            db = Database.open_existing(pdir, CHUNK)
            server = TdbServer(db, host=host, port=port).start()
            _populate(server, count=8, start=100)
            while True:
                stats = applier.stats_snapshot()
                if stats["reconnects"] >= 1 and stats["lag_seqno"] == 0 and (
                    stats["shipments_applied"] >= 2
                ):
                    break
                assert time.monotonic() < deadline, (
                    f"applier never caught up after restart: {stats}"
                )
                time.sleep(0.05)
            stats = applier.stats_snapshot()
            assert stats["link_failures"] > 0
            assert stats["reconnects"] >= 1
            assert stats["consecutive_failures"] == 0
        finally:
            applier.close()
            server.stop()
            db.close()
