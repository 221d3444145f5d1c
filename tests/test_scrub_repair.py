"""Self-healing: Merkle scrub, damage localization, repair, salvage.

The scrub walks the embedded Merkle tree and reports *every* damaged
chunk and map node instead of stopping at the first bad byte; the
repair engine uses that report plus a full+incremental backup chain to
re-materialize exactly the damaged state (falling back to a full
restore); salvage mode opens a damaged store read-only and serves
whatever still verifies.

The big sweep here is the robustness contract: corrupt every required
on-disk region family of a backed-up image and demand that
``RepairEngine.heal`` always converges to the byte-exact committed
state — and never escapes with a non-TDB exception.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.backupstore import BackupStore
from repro.chunkstore import ChunkStore
from repro.chunkstore.segments import segment_file_name
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.errors import (
    RepairError,
    SalvageReadOnlyError,
    TamperDetectedError,
    TDBError,
)
from repro.platform import (
    MemoryArchivalStore,
    MemoryOneWayCounter,
    MemorySecretStore,
)
from repro.repair import RepairEngine
from repro.testing import (
    REQUIRED_REGION_KINDS,
    FaultyUntrustedStore,
    TamperMatrix,
)

_SECRET = b"scrub-repair-secret-0123456789ab"

CONFIG = ChunkStoreConfig(
    segment_size=4096,
    initial_segments=3,
    checkpoint_residual_bytes=8192,
    map_fanout=8,
    fsync=True,
    security=SecurityProfile(),
)


pytestmark = pytest.mark.usefixtures("store_aes")


def _payload(tag: int, seq: int, size: int) -> bytes:
    pattern = bytes((tag * 31 + seq * 7 + i) % 256 for i in range(min(size, 48)))
    return (pattern * (size // len(pattern) + 1))[:size]


class Baseline:
    """A closed, fully-backed-up store image with a known final state."""

    def __init__(self):
        self.untrusted = FaultyUntrustedStore()
        self.secret = MemorySecretStore(_SECRET)
        self.counter = MemoryOneWayCounter()
        self.archival = MemoryArchivalStore()
        store = ChunkStore.format(self.untrusted, self.secret, self.counter, CONFIG)
        backups = BackupStore(self.archival, self.secret)

        self.expected = {}
        ids = [store.allocate_chunk_id() for _ in range(10)]
        for i, cid in enumerate(ids):
            self.expected[cid] = _payload(1, i, 200 + 30 * (i % 4))
        store.commit(dict(self.expected), durable=True)
        store.checkpoint(force=True)
        backups.create_full(store, "full-1")

        # Second wave: updates, fresh chunks, one deallocation — so the
        # incremental actually carries writes *and* removes.
        for i in (1, 4, 7):
            self.expected[ids[i]] = _payload(2, i, 260)
        new_ids = [store.allocate_chunk_id() for _ in range(3)]
        for i, cid in enumerate(new_ids):
            self.expected[cid] = _payload(3, i, 180)
        gone = ids[9]
        writes = {cid: self.expected[cid]
                  for cid in [ids[1], ids[4], ids[7], *new_ids]}
        store.commit(writes, deallocs=(gone,), durable=True)
        del self.expected[gone]
        store.checkpoint(force=True)
        backups.create_incremental(store, "incr-2")
        backups.close()

        self.tag_size = store.codec.tag_size
        store.close()
        self.counter_value = self.counter.read()
        self.image = self.untrusted.save_image()
        self.names = ["full-1", "incr-2"]

    # -- helpers -----------------------------------------------------------

    def fresh_store(self, image=None):
        """Open a throwaway store over (a copy of) an image."""
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(image if image is not None else self.image)
        counter = MemoryOneWayCounter(self.counter_value)
        return ChunkStore.open(untrusted, self.secret, counter, CONFIG), untrusted

    def open_salvage(self, image):
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(image)
        counter = MemoryOneWayCounter(self.counter_value)
        return ChunkStore.open_salvage(untrusted, self.secret, counter, CONFIG)

    def heal(self, image):
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(image)
        counter = MemoryOneWayCounter(self.counter_value)
        engine = RepairEngine(BackupStore(self.archival, self.secret), self.names)
        result = engine.heal(untrusted, self.secret, counter, CONFIG)
        state = {cid: result.store.read(cid) for cid in result.store.chunk_ids()}
        result.store.close()
        return result, state

    def flip(self, image, segment, offset, mask=0x40):
        """Copy of ``image`` with one byte XORed inside a segment file."""
        name = segment_file_name(segment)
        mutated = dict(image)
        buf = bytearray(mutated[name])
        buf[offset] ^= mask
        mutated[name] = bytes(buf)
        return mutated

    def chunk_locator(self, chunk_id):
        store, _ = self.fresh_store()
        try:
            return store.location_map.lookup(chunk_id)
        finally:
            store.close()

    def leaf_node_locators(self):
        """{leaf index: locator} read from the checkpointed map root."""
        store, _ = self.fresh_store()
        try:
            lmap = store.location_map
            root = store.node_io.load_node(lmap.root_locator, lmap.depth - 1, 0)
            return dict(root.children), lmap.root_locator, lmap.fanout
        finally:
            store.close()


@lru_cache(maxsize=None)
def baseline() -> Baseline:
    return Baseline()


# ---------------------------------------------------------------------------
# Scrub / DamageReport
# ---------------------------------------------------------------------------


class TestScrub:
    def test_pristine_store_scrubs_clean(self):
        b = baseline()
        store, _ = b.fresh_store()
        report = store.scrub()
        store.close()
        assert report.clean
        assert report.verified_chunks == len(b.expected)
        assert report.verified_nodes > 0
        assert "clean" in report.summary()

    def test_scrub_localizes_one_damaged_payload(self):
        b = baseline()
        victim = sorted(b.expected)[2]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        store, _ = b.fresh_store(image)
        report = store.scrub()
        store.close()
        assert not report.clean and not report.root_lost
        assert [d.chunk_id for d in report.damaged_chunks] == [victim]
        (entry,) = report.damaged_chunks
        assert (entry.segment, entry.offset) == (loc.segment, loc.offset)
        assert "TamperDetectedError" in entry.error
        assert report.damaged_segments() == [loc.segment]
        # All other chunks still verified in the same pass.
        assert report.verified_chunks == len(b.expected) - 1

    def test_scrub_reports_every_damaged_chunk_not_just_first(self):
        b = baseline()
        victims = sorted(b.expected)[:3]
        image = b.image
        for cid in victims:
            loc = b.chunk_locator(cid)
            image = b.flip(image, loc.segment, loc.offset + loc.length // 2)
        store, _ = b.fresh_store(image)
        report = store.scrub()
        store.close()
        assert sorted(d.chunk_id for d in report.damaged_chunks) == victims

    def test_scrub_localizes_damaged_map_node_with_id_range(self):
        b = baseline()
        leaves, _, fanout = b.leaf_node_locators()
        slot, loc = sorted(leaves.items())[0]
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        store, _ = b.fresh_store(image)
        report = store.scrub()
        store.close()
        assert not report.clean and not report.root_lost
        assert not report.damaged_chunks  # damage recorded at the node, once
        (node,) = report.damaged_nodes
        assert node.level == 0
        assert (node.id_lo, node.id_hi) == (slot * fanout, (slot + 1) * fanout)
        assert report.suspect_id_ranges() == [(node.id_lo, node.id_hi)]

    def test_scrub_flags_lost_root(self):
        b = baseline()
        _, root_loc, _ = b.leaf_node_locators()
        image = b.flip(b.image, root_loc.segment,
                       root_loc.offset + root_loc.length // 2)
        store, _ = b.fresh_store(image)
        report = store.scrub()
        store.close()
        assert report.root_lost and not report.clean
        assert "map root lost" in report.summary()

    def test_normal_reads_still_fail_fast(self):
        """Scrub is additive: the lazy read path keeps raising."""
        b = baseline()
        victim = sorted(b.expected)[0]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        store, _ = b.fresh_store(image)
        with pytest.raises(TDBError):
            store.read(victim)
        store.close()


class TestScrubFromMedia:
    """Nothing vouches for a chunk but its digest: every scrub re-reads
    and re-hashes every reachable payload, exactly as a read does."""

    @staticmethod
    def _store(security):
        store = ChunkStore.format(
            FaultyUntrustedStore(),
            MemorySecretStore(_SECRET),
            MemoryOneWayCounter(),
            replace(CONFIG, security=security),
        )
        writes = {}
        for i in range(20):
            writes[store.allocate_chunk_id()] = _payload(4, i, 120 + i)
        store.commit(writes, durable=True)
        store.checkpoint(force=True)
        return store, writes

    def test_every_scrub_verifies_every_chunk(self):
        store, writes = self._store(SecurityProfile())
        reports = [store.scrub() for _ in range(3)]
        store.close()
        for report in reports:
            assert report.clean
            assert report.verified_chunks == len(writes)
            assert report.verified_nodes == reports[0].verified_nodes > 0

    def test_next_scrub_catches_tamper(self):
        b = baseline()
        victim = sorted(b.expected)[3]
        loc = b.chunk_locator(victim)
        store, untrusted = b.fresh_store()
        assert store.scrub().clean
        # Flip a payload byte behind the store's back.
        name = segment_file_name(loc.segment)
        buf = bytearray(untrusted.read(name, 0, untrusted.size(name)))
        buf[loc.offset + loc.length // 2] ^= 0x40
        untrusted.write(name, 0, bytes(buf))
        report = store.scrub()
        store.close()
        assert [d.chunk_id for d in report.damaged_chunks] == [victim]

    def test_salvage_store_scrubs_every_chunk(self):
        b = baseline()
        store = b.open_salvage(b.image)
        report = store.scrub()
        store.close()
        assert report.clean
        assert report.verified_chunks == len(b.expected)

    def test_plain_tdb_store_scrubs_every_chunk(self):
        store, writes = self._store(SecurityProfile(enabled=False))
        report = store.scrub()
        store.close()
        assert report.clean
        assert report.verified_chunks == len(writes)

    def test_unchanged_checkpoint_rehashes_nothing(self, monkeypatch):
        store, _ = self._store(SecurityProfile())
        digested = []
        original = ChunkStore._digest_payload

        def counting(self, data):
            digested.append(len(data))
            return original(self, data)

        monkeypatch.setattr(ChunkStore, "_digest_payload", counting)
        store.checkpoint(force=True)
        assert digested == []
        # The counter is live: a scrub hashes each node and payload once.
        report = store.scrub()
        store.close()
        assert len(digested) == report.verified_chunks + report.verified_nodes


# ---------------------------------------------------------------------------
# RepairEngine
# ---------------------------------------------------------------------------


class TestRepairEngine:
    def test_requires_a_backup_chain(self):
        b = baseline()
        with pytest.raises(RepairError):
            RepairEngine(BackupStore(b.archival, b.secret), [])

    def test_clean_store_is_left_alone(self):
        b = baseline()
        result, state = b.heal(b.image)
        assert result.action == "clean"
        assert result.healthy
        assert state == b.expected

    def test_selective_repair_of_damaged_payload(self):
        b = baseline()
        victim = sorted(b.expected)[3]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        result, state = b.heal(image)
        assert result.action == "selective"
        assert result.healthy
        assert result.repaired_chunks == [victim]
        assert not result.lost_chunks
        assert state == b.expected

    def test_selective_repair_prunes_damaged_map_node(self):
        b = baseline()
        leaves, _, fanout = b.leaf_node_locators()
        slot, loc = sorted(leaves.items())[0]
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        result, state = b.heal(image)
        assert result.action == "selective"
        assert result.healthy
        assert result.pruned_ranges == [(slot * fanout, (slot + 1) * fanout)]
        covered = [cid for cid in b.expected
                   if slot * fanout <= cid < (slot + 1) * fanout]
        assert result.repaired_chunks == sorted(covered)
        assert state == b.expected

    def test_lost_root_escalates_to_full_restore(self):
        b = baseline()
        _, root_loc, _ = b.leaf_node_locators()
        image = b.flip(b.image, root_loc.segment,
                       root_loc.offset + root_loc.length // 2)
        result, state = b.heal(image)
        assert result.action == "full_restore"
        assert result.healthy
        assert state == b.expected

    def test_unopenable_store_escalates_to_full_restore(self):
        b = baseline()
        image = dict(b.image)
        for name in list(image):
            if name.startswith("master"):
                image[name] = b"\x00" * len(image[name])
        result, state = b.heal(image)
        assert result.action == "full_restore"
        assert result.open_error is not None
        assert result.healthy
        assert state == b.expected

    def test_chunk_newer_than_any_backup_is_reported_lost(self):
        b = baseline()
        # Extend the baseline image with one post-backup chunk.
        store, untrusted = b.fresh_store()
        late = store.allocate_chunk_id()
        store.commit({late: _payload(9, 0, 240)}, durable=True)
        store.checkpoint(force=True)
        counter_after = store.counter.read()
        loc = store.location_map.lookup(late)
        store.close()
        image = untrusted.save_image()
        image = b.flip(image, loc.segment, loc.offset + loc.length // 2)

        untrusted2 = FaultyUntrustedStore()
        untrusted2.load_image(image)
        # The extended run advanced the counter past the baseline value.
        counter2 = MemoryOneWayCounter(counter_after)
        engine = RepairEngine(BackupStore(b.archival, b.secret), b.names)
        result = engine.heal(untrusted2, b.secret, counter2, CONFIG)
        state = {cid: result.store.read(cid) for cid in result.store.chunk_ids()}
        result.store.close()
        assert result.healthy
        assert late in result.lost_chunks
        assert late not in state
        assert state == b.expected


# ---------------------------------------------------------------------------
# The repair sweep: every required region family, byte-exact convergence
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sweep_results(kind: str):
    b = baseline()
    matrix = TamperMatrix(b.image, b.tag_size, offsets_per_region=2)
    matrix.regions = [r for r in matrix.regions if r.kind == kind]
    assert matrix.regions, f"baseline image has no {kind} regions"
    results = []
    for mutation in matrix.mutations():
        result, state = b.heal(mutation.apply(b.image))
        results.append((mutation, result, state))
    return results


@pytest.mark.parametrize("kind", sorted(REQUIRED_REGION_KINDS))
def test_repair_sweep_converges_for_region_kind(kind):
    """Corrupt every region of this family: heal() must return a healthy
    store whose contents are byte-identical to the committed state, and
    must never leak a non-TDB exception (that would fail the sweep loop
    itself)."""
    b = baseline()
    bad = []
    for mutation, result, state in _sweep_results(kind):
        if not result.healthy or state != b.expected:
            bad.append(f"{mutation.describe()}: action={result.action}")
    assert not bad, "\n".join(bad[:10])


def test_repair_sweep_exercises_both_repair_rungs():
    """Across the sweep both the cheap and the catastrophic rung fire:
    payload damage heals selectively, root-node damage forces full
    restores.  (Single-master damage heals *clean* — the redundant
    master slot absorbs it before repair is even needed.)"""
    actions = {
        kind: {r.action for _, r, _ in _sweep_results(kind)}
        for kind in sorted(REQUIRED_REGION_KINDS)
    }
    assert "selective" in actions["chunk-payload"], actions
    assert "full_restore" in actions["map-node"], actions
    assert actions["master"] == {"clean"}, actions


# ---------------------------------------------------------------------------
# Salvage mode
# ---------------------------------------------------------------------------


class TestSalvage:
    def test_salvage_serves_surviving_chunks_readonly(self):
        b = baseline()
        victim = sorted(b.expected)[5]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        store = b.open_salvage(image)
        assert store.salvage
        for cid, payload in b.expected.items():
            if cid == victim:
                with pytest.raises(TDBError):
                    store.read(cid)
            else:
                assert store.read(cid) == payload
        with pytest.raises(SalvageReadOnlyError):
            store.commit({victim: b"new"}, durable=True)
        with pytest.raises(SalvageReadOnlyError):
            store.allocate_chunk_id()
        with pytest.raises(SalvageReadOnlyError):
            store.checkpoint(force=True)
        store.close()

    def test_salvage_export_collects_exactly_the_survivors(self):
        b = baseline()
        victim = sorted(b.expected)[5]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        store = b.open_salvage(image)
        report, payloads = store.export_surviving()
        store.close()
        assert [d.chunk_id for d in report.damaged_chunks] == [victim]
        survivors = {cid: p for cid, p in b.expected.items() if cid != victim}
        assert payloads == survivors

    def test_salvage_never_mutates_the_media(self):
        b = baseline()
        victim = sorted(b.expected)[1]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + loc.length // 2)
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(image)
        before = untrusted.save_image()
        counter = MemoryOneWayCounter(b.counter_value)
        store = ChunkStore.open_salvage(untrusted, b.secret, counter, CONFIG)
        store.scrub()
        store.close()
        assert untrusted.save_image() == before
        assert counter.read() == b.counter_value  # no counter churn either

    def test_salvage_reports_replay_skew(self):
        """Opening a rolled-back image in salvage mode does not raise —
        the skew is surfaced in salvage_info for the operator."""
        b = baseline()
        # The baseline image was written against counter_value; a counter
        # far ahead of it is exactly what a replayed (old) image looks like.
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(b.image)
        counter = MemoryOneWayCounter(b.counter_value + 5)
        store = ChunkStore.open_salvage(untrusted, b.secret, counter, CONFIG)
        info = store.salvage_info
        assert info is not None
        assert info.counter_skew != 0
        assert info.replay_suspected
        assert info.degraded
        # The data itself still verifies: it is old, not corrupt.
        assert store.scrub().clean
        store.close()


class TestReadOnlyOpensWriteNothing:
    """A read-only open runs the one replay but leaves the media alone,
    so it is safe next to a live writer of the same directory."""

    @staticmethod
    def _live_db(tmp_path):
        """A live file-backed store: one durable, one nondurable commit."""
        from repro import Database

        directory = str(tmp_path / "db")
        db = Database.create(directory)
        cs = db.chunk_store
        durable, nondurable = cs.allocate_chunk_id(), cs.allocate_chunk_id()
        cs.commit({durable: _payload(7, 0, 300)}, durable=True)
        cs.commit({nondurable: _payload(7, 1, 300)}, durable=False)
        return db, directory, durable, nondurable

    @staticmethod
    def _files(directory):
        import os

        out = {}
        for root, _dirs, names in os.walk(directory):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, directory)] = fh.read()
        return out

    @staticmethod
    def _finish(db, directory, durable, nondurable):
        """The live store still reads its nondurable chunk, and after it
        closes a writable reopen sees both chunks."""
        from repro import Database

        assert db.chunk_store.read(nondurable) == _payload(7, 1, 300)
        db.close()
        db = Database.open_existing(directory)
        try:
            assert db.chunk_store.read(durable) == _payload(7, 0, 300)
            assert db.chunk_store.read(nondurable) == _payload(7, 1, 300)
        finally:
            db.close()

    def test_readonly_open_of_a_live_directory_writes_nothing(self, tmp_path):
        from repro.platform import (
            FileOneWayCounter,
            FileSecretStore,
            FileUntrustedStore,
        )

        db, directory, durable, nondurable = self._live_db(tmp_path)
        before = self._files(directory)
        store = ChunkStore.open(
            FileUntrustedStore(directory + "/data"),
            FileSecretStore(directory + "/secret.key"),
            FileOneWayCounter(directory + "/counter"),
            read_only=True,
        )
        assert store.read(durable) == _payload(7, 0, 300)
        assert not store.contains(nondurable)  # not durable: replayed away
        store.scrub()
        store.close()
        assert self._files(directory) == before
        self._finish(db, directory, durable, nondurable)

    @pytest.mark.parametrize(
        "command", ["stats", "heads", "audit", "inspect", "verify"]
    )
    def test_readonly_cli_on_a_live_directory_writes_nothing(
        self, tmp_path, capsys, command
    ):
        from repro.tools import main as tools_main

        db, directory, durable, nondurable = self._live_db(tmp_path)
        before = self._files(directory)
        assert tools_main([command, directory]) == 0, capsys.readouterr()
        assert self._files(directory) == before
        self._finish(db, directory, durable, nondurable)


class TestCounterOneBehind:
    """The image's newest durable commit is one ahead of the counter: the
    crash window between a commit's sync and its counter advance."""

    def test_readonly_open_refuses_and_leaves_the_counter(self):
        b = baseline()
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(b.image)
        counter = MemoryOneWayCounter(b.counter_value - 1)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, b.secret, counter, CONFIG, read_only=True)
        assert counter.read() == b.counter_value - 1
        assert untrusted.save_image() == b.image

    def test_writable_open_still_resyncs(self):
        b = baseline()
        untrusted = FaultyUntrustedStore()
        untrusted.load_image(b.image)
        counter = MemoryOneWayCounter(b.counter_value - 1)
        store = ChunkStore.open(untrusted, b.secret, counter, CONFIG)
        assert store.possible_lost_commit
        assert counter.read() == b.counter_value
        assert {cid: store.read(cid) for cid in store.chunk_ids()} == b.expected
        store.close()


# ---------------------------------------------------------------------------
# Database facade
# ---------------------------------------------------------------------------


class TestDatabaseSalvage:
    def _make_db(self, tmp_path):
        from repro import Database

        db = Database.create(str(tmp_path / "db"))
        cs = db.chunk_store
        ids = [cs.allocate_chunk_id() for _ in range(6)]
        expected = {cid: _payload(5, i, 300) for i, cid in enumerate(ids)}
        cs.commit(dict(expected), durable=True)
        cs.checkpoint(force=True)
        tag_size = cs.codec.tag_size
        locs = {cid: cs.location_map.lookup(cid) for cid in ids}
        db.close()
        return expected, locs, tag_size

    def test_open_existing_salvage_on_damaged_directory(self, tmp_path):
        from repro import Database

        expected, locs, _ = self._make_db(tmp_path)
        victim = sorted(expected)[0]
        loc = locs[victim]
        seg_path = tmp_path / "db" / "data" / segment_file_name(loc.segment)
        data = bytearray(seg_path.read_bytes())
        data[loc.offset + loc.length // 2] ^= 0x40
        seg_path.write_bytes(bytes(data))

        db = Database.open_existing(str(tmp_path / "db"), salvage=True)
        assert db.salvage
        report, payloads = db.export_surviving()
        assert [d.chunk_id for d in report.damaged_chunks] == [victim]
        # Everything but the victim survives (the image also carries the
        # object-store catalog chunk the facade created).
        survivors = {c: p for c, p in expected.items() if c != victim}
        assert survivors.items() <= payloads.items()
        assert victim not in payloads
        db.close()

    def test_salvage_then_repair_round_trip(self, tmp_path):
        """The documented operator path: diagnose read-only, then heal."""
        from repro import Database

        db = Database.create(str(tmp_path / "db"))
        cs = db.chunk_store
        ids = [cs.allocate_chunk_id() for _ in range(6)]
        expected = {cid: _payload(6, i, 280) for i, cid in enumerate(ids)}
        cs.commit(dict(expected), durable=True)
        cs.checkpoint(force=True)
        backups = db.backup_store()
        backups.create_full(cs, "full-1")
        victim = sorted(expected)[2]
        loc = cs.location_map.lookup(victim)
        db.close()

        seg_path = tmp_path / "db" / "data" / segment_file_name(loc.segment)
        data = bytearray(seg_path.read_bytes())
        data[loc.offset + loc.length // 2] ^= 0x40
        seg_path.write_bytes(bytes(data))

        # Diagnose without touching the media...
        db = Database.open_existing(str(tmp_path / "db"), salvage=True)
        report = db.scrub()
        assert [d.chunk_id for d in report.damaged_chunks] == [victim]
        db.close()

        # ...then heal in place and reopen normally.
        from repro.platform import (
            FileArchivalStore,
            FileOneWayCounter,
            FileSecretStore,
            FileUntrustedStore,
        )

        base = str(tmp_path / "db")
        untrusted = FileUntrustedStore(base + "/data")
        secret = FileSecretStore(base + "/secret.key")
        counter = FileOneWayCounter(base + "/counter")
        archival = FileArchivalStore(base + "/archive")
        engine = RepairEngine(BackupStore(archival, secret), ["full-1"])
        result = engine.heal(untrusted, secret, counter)
        assert result.action == "selective"
        assert result.repaired_chunks == [victim]
        result.store.close()

        db = Database.open_existing(str(tmp_path / "db"))
        assert not db.salvage
        for cid, payload in expected.items():
            assert db.chunk_store.read(cid) == payload
        db.close()
