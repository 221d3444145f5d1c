"""Exhaustive crash-point enumeration for the chunk store.

Built on :mod:`repro.testing`: a TPC-B-style workload is profiled once to
count its media operations, then pytest parametrizes one test per
operation boundary — crash after every mutating op (write, truncate,
delete), a torn variant of every multi-byte write, and crash after every
sync.  At each point recovery must land exactly on a committed prefix of
the history (the last durable state, or the in-flight commit): never an
invented state, never a lost acknowledged commit, and a pure crash must
never be flagged as tampering.

The FailingStore test keeps the seed's orthogonal failure mode: media
that starts *erroring* (not crashing) mid-operation must surface errors,
not acknowledge commits it did not persist.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.chunkstore import ChunkStore
from repro.errors import StoreError, TamperDetectedError, TDBError
from repro.platform import MemoryOneWayCounter, MemoryUntrustedStore
from repro.testing import ChunkStoreCrashScenario, CrashSweeper, FaultSchedule


def make_sweeper(secure: bool) -> CrashSweeper:
    return CrashSweeper(lambda: ChunkStoreCrashScenario(secure=secure))


@lru_cache(maxsize=None)
def profile_ops(secure: bool):
    """(mutating op descriptions, sync count) of the sample workload."""
    store = make_sweeper(secure).profile()
    ops = [op for op in store.op_log if op[0] != "sync"]
    return ops, store.total_syncs


def _op_points(secure):
    ops, _ = profile_ops(secure)
    return [
        pytest.param(index, id=f"{'sec' if secure else 'ins'}-{kind}{index}-{name}")
        for index, (kind, name, _nbytes) in enumerate(ops, start=1)
    ]


def _torn_points(secure):
    ops, _ = profile_ops(secure)
    return [
        pytest.param(index, nbytes,
                     id=f"{'sec' if secure else 'ins'}-torn{index}-{name}")
        for index, (kind, name, nbytes) in enumerate(ops, start=1)
        if kind == "write" and nbytes >= 2
    ]


def _sync_points(secure):
    _, syncs = profile_ops(secure)
    return [
        pytest.param(index, id=f"{'sec' if secure else 'ins'}-sync{index}")
        for index in range(1, syncs + 1)
    ]


class TestEveryCrashBoundarySecure:
    """One test per operation boundary of the secure-mode workload."""

    @pytest.mark.parametrize("index", _op_points(True))
    def test_crash_after_mutating_op(self, index):
        fault = FaultSchedule().crash_after_write(index).faults[0]
        result = make_sweeper(True).run_point(fault, f"crash after op#{index}")
        assert result.outcome != "failed", result.detail

    @pytest.mark.parametrize("index,nbytes", _torn_points(True))
    def test_torn_write(self, index, nbytes):
        fault = FaultSchedule().crash_mid_write(index, nbytes // 2).faults[0]
        result = make_sweeper(True).run_point(fault, f"torn write#{index}")
        assert result.outcome != "failed", result.detail

    @pytest.mark.parametrize("index", _sync_points(True))
    def test_crash_after_sync(self, index):
        fault = FaultSchedule().crash_after_sync(index).faults[0]
        result = make_sweeper(True).run_point(fault, f"crash after sync#{index}")
        assert result.outcome != "failed", result.detail


def test_full_sweep_insecure_mode():
    """Insecure mode (CRC tags, no MAC/counter) sweeps clean too."""
    report = make_sweeper(False).sweep()
    report.assert_ok()
    assert report.total_writes > 0 and report.total_syncs > 0
    assert report.recovered > 0


def test_sweep_is_exhaustive_and_crashes_recover():
    """The report covers every boundary and post-format crashes recover.

    Every mutating op gets a crash point, every multi-byte write a torn
    point, every sync a crash point — nothing sampled away — and with
    the in-memory store (writes durable at write) *no* post-format crash
    may be flagged, so all flags come from mid-format points.
    """
    report = make_sweeper(True).sweep()
    report.assert_ok()
    ops, syncs = profile_ops(True)
    torn = sum(1 for kind, _n, nbytes in ops if kind == "write" and nbytes >= 2)
    assert len(report.points) == len(ops) + torn + syncs
    assert report.recovered + report.flagged == len(report.points)
    assert report.recovered > report.flagged


def test_replay_sweep_every_durable_image_detected():
    """Rolling media back to any earlier durable image trips the counter."""
    report = make_sweeper(True).sweep_replays()
    report.assert_ok()
    # The workload makes several durable commits, each a rollback target.
    assert report.detected >= 3
    # The final image itself must have opened cleanly, not been flagged.
    assert any(p.outcome == "current" for p in report.points)


def _contents(store: ChunkStore) -> dict:
    try:
        return {cid: store.read(cid) for cid in store.chunk_ids()}
    finally:
        store.close()


class DifferentialRecoveryScenario(ChunkStoreCrashScenario):
    """Recovers each crash image three ways and demands they agree.

    A read-only open and a salvage open run first: neither may change
    the image or the counter, and both must return what the writable
    recovery that follows returns.  The read-only open may refuse only
    in the window between a commit's sync and its counter advance —
    exactly when the writable recovery resyncs the counter.
    """

    def __init__(self, refusals: list) -> None:
        super().__init__(secure=True)
        self.refusals = refusals

    def recover(self) -> dict:
        image, counter_before = self.untrusted.save_image(), self.counter.read()
        seen = {}
        for mode in ("read-only", "salvage"):
            try:
                if mode == "salvage":
                    store = ChunkStore.open_salvage(
                        self.untrusted, self.secret_store, self.counter, self.config
                    )
                else:
                    store = ChunkStore.open(
                        self.untrusted, self.secret_store, self.counter,
                        self.config, read_only=True,
                    )
                seen[mode] = _contents(store)
            except TDBError as exc:
                seen[mode] = exc
            assert self.untrusted.save_image() == image, f"{mode} open wrote"
            assert self.counter.read() == counter_before, f"{mode} open counted"
        state = super().recover()
        resynced = self.counter.read() == counter_before + 1
        if isinstance(seen["read-only"], TDBError):
            assert resynced and isinstance(seen["read-only"], TamperDetectedError), (
                f"read-only open refused a recoverable image: {seen['read-only']!r}"
            )
            self.refusals.append(counter_before)
        else:
            assert not resynced, "read-only open accepted a counter one behind"
            assert seen["read-only"] == state, "read-only open disagrees"
        assert seen["salvage"] == state, "salvage open disagrees"
        return state


def test_readonly_and_salvage_opens_agree_with_recovery_at_every_crash_point():
    refusals: list = []
    report = CrashSweeper(lambda: DifferentialRecoveryScenario(refusals)).sweep()
    report.assert_ok()
    assert report.recovered > report.flagged
    # The sync-before-counter window was crashed into, and refused.
    assert refusals


def test_mutation_guard_sweep_catches_lost_commits(monkeypatch):
    """Meta-test: a deliberately broken recovery MUST fail the sweep.

    Drops the last applied commit record during residual-log replay —
    the classic lost-commit recovery bug.  If the sweep passes with this
    bug active, the harness has no teeth and this test fails.
    """
    import repro.chunkstore.recovery as recovery_mod

    real_scan = recovery_mod.scan_residual_log

    def lossy_scan(*args, **kwargs):
        scan = real_scan(*args, **kwargs)
        if scan.records:
            scan.records = scan.records[:-1]
        return scan

    monkeypatch.setattr(recovery_mod, "scan_residual_log", lossy_scan)
    report = make_sweeper(True).sweep()
    assert report.failures, (
        "sweep accepted a recovery that drops the last log record — "
        "the harness failed its mutation test"
    )


def test_mutation_guard_replay_sweep_catches_disabled_counter(monkeypatch):
    """Meta-test: with the counter check disabled, replays must surface."""
    monkeypatch.setattr(ChunkStore, "_check_counter", lambda self: None)
    report = make_sweeper(True).sweep_replays()
    assert report.failures, (
        "replay sweep accepted rollbacks with the counter check disabled — "
        "the harness failed its mutation test"
    )


class FailingStore(MemoryUntrustedStore):
    """Untrusted store whose writes start failing after a fuse burns."""

    def __init__(self, fuse: int) -> None:
        super().__init__()
        self.fuse = fuse

    def write(self, name, offset, data):
        if self.fuse <= 0:
            raise StoreError("injected write failure")
        self.fuse -= 1
        super().write(name, offset, data)


def test_write_failures_surface_not_corrupt():
    """Once the medium starts failing, operations raise; data written
    before the failure stays readable after recovery on a healed store."""
    scenario = ChunkStoreCrashScenario()
    config, secret = scenario.config, scenario.secret_store
    survived_any = False
    for fuse in range(3, 40, 3):
        untrusted = FailingStore(fuse=10_000)
        counter = MemoryOneWayCounter()
        store = ChunkStore.format(untrusted, secret, counter, config)
        cid = store.allocate_chunk_id()
        store.write(cid, b"pre-failure state")
        untrusted.fuse = fuse
        try:
            for index in range(50):
                extra = store.allocate_chunk_id()
                store.write(extra, b"x%d" % index)
        except (TDBError, StoreError):
            pass
        # Heal the medium and recover from whatever reached it.
        untrusted.fuse = 10 ** 9
        try:
            recovered = ChunkStore.open(untrusted, secret, counter, config)
        except TDBError:
            continue  # detected inconsistency: acceptable
        survived_any = True
        assert recovered.read(cid) == b"pre-failure state"
        recovered.close()
    assert survived_any
