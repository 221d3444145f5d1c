"""Digest-memo semantics: when scrub may skip re-hashing, and when not.

The memo remembers which exact payload versions (chunk id or map-node
coordinate -> Locator) already verified, so an *incremental* scrub
(``deep=False``) re-hashes only what changed.  These tests pin the
safety boundary: rewrites stale old entries automatically, deallocation
and repair invalidate explicitly, salvage carries no memo at all, and
the default deep scrub ignores the memo entirely — media tampering
after the last verification is only ever caught deep.
"""

from __future__ import annotations

from repro.chunkstore import ChunkStore
from repro.chunkstore.digestmemo import DigestMemo
from repro.chunkstore.format import Locator
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

from tests.test_scrub_repair import baseline

CONFIG = ChunkStoreConfig(
    segment_size=8192,
    initial_segments=2,
    map_fanout=8,
    security=SecurityProfile(),
)


def _store(config: ChunkStoreConfig = CONFIG):
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(b"digest-memo-secret-0123456789abc")
    counter = MemoryOneWayCounter()
    return ChunkStore.format(untrusted, secret, counter, config), untrusted


def _write_chunks(store, count=20, size=120):
    writes = {}
    for i in range(count):
        cid = store.allocate_chunk_id()
        writes[cid] = bytes((i * 17 + j) % 256 for j in range(size + i))
    store.commit(writes, durable=True)
    store.checkpoint(force=True)
    return writes


# ---------------------------------------------------------------------------
# Unit behaviour of the memo itself
# ---------------------------------------------------------------------------


class TestDigestMemoUnit:
    def _loc(self, seg, off):
        return Locator(segment=seg, offset=off, length=10, hash_value=b"h" * 20)

    def test_entry_valid_only_for_exact_locator(self):
        memo = DigestMemo()
        loc = self._loc(1, 100)
        memo.note_chunk(7, loc)
        assert memo.chunk_verified(7, loc)
        # Any rewrite moves the chunk in the log -> different locator ->
        # the stale entry silently stops matching.
        assert not memo.chunk_verified(7, self._loc(1, 200))
        assert not memo.chunk_verified(8, loc)

    def test_invalidate_and_clear(self):
        memo = DigestMemo()
        loc = self._loc(2, 0)
        memo.note_chunk(1, loc)
        memo.note_node(0, 3, loc)
        memo.invalidate_chunk(1)
        assert not memo.chunk_verified(1, loc)
        assert memo.node_verified(0, 3, loc)
        memo.clear()
        assert not memo.node_verified(0, 3, loc)
        assert len(memo) == 0

    def test_bounded_capacity_drops_new_notes(self):
        memo = DigestMemo(max_entries=2)
        memo.note_chunk(1, self._loc(1, 0))
        memo.note_chunk(2, self._loc(1, 50))
        memo.note_chunk(3, self._loc(1, 100))  # over budget: dropped
        assert not memo.chunk_verified(3, self._loc(1, 100))
        # Updating an existing key is always allowed.
        memo.note_chunk(1, self._loc(4, 0))
        assert memo.chunk_verified(1, self._loc(4, 0))


# ---------------------------------------------------------------------------
# Store-level: the zero-re-hash contract
# ---------------------------------------------------------------------------


class TestIncrementalScrub:
    def test_unchanged_store_rehashes_nothing(self):
        store, _ = _store()
        writes = _write_chunks(store)
        before = store.perf.counter("payload_digests")
        report = store.scrub(deep=False)
        after = store.perf.counter("payload_digests")
        store.close()
        assert report.clean
        assert after == before, "incremental scrub re-hashed a clean store"
        assert report.verified_chunks == 0
        assert report.memo_skipped_chunks == len(writes)
        assert report.memo_skipped_nodes > 0

    def test_checkpoint_of_unchanged_store_rehashes_nothing(self):
        store, _ = _store()
        _write_chunks(store)
        before = store.perf.counter("payload_digests")
        store.checkpoint(force=True)
        after = store.perf.counter("payload_digests")
        store.close()
        assert after == before

    def test_rewrite_stales_only_the_old_version(self):
        store, _ = _store()
        writes = _write_chunks(store)
        victim = sorted(writes)[0]
        old_locator = store.location_map.lookup(victim)
        store.write(victim, b"replacement state", durable=True)
        store.checkpoint(force=True)
        # The stale version is no longer accepted...
        assert not store.digest_memo.chunk_verified(victim, old_locator)
        # ...while the new one was noted at commit time, so a clean
        # incremental scrub still re-hashes nothing.
        report = store.scrub(deep=False)
        store.close()
        assert report.clean and report.verified_chunks == 0

    def test_deallocate_invalidates_memo_entry(self):
        store, _ = _store()
        writes = _write_chunks(store)
        victim = sorted(writes)[1]
        locator = store.location_map.lookup(victim)
        assert store.digest_memo.chunk_verified(victim, locator)
        store.deallocate(victim, durable=True)
        assert not store.digest_memo.chunk_verified(victim, locator)
        store.close()

    def test_reset_forces_full_rehash(self):
        store, _ = _store()
        writes = _write_chunks(store)
        store.reset_digest_memo()
        report = store.scrub(deep=False)
        assert report.clean
        assert report.memo_skipped_chunks == 0
        assert report.verified_chunks == len(writes)
        # The forced re-hash repopulated the memo: next pass skips all.
        report2 = store.scrub(deep=False)
        store.close()
        assert report2.memo_skipped_chunks == len(writes)

    def test_memo_disabled_profile_always_scrubs_deep(self):
        # Plain TDB (security disabled) has nothing to memoize, so the
        # store carries no memo and deep=False walks every chunk.
        config = ChunkStoreConfig(
            segment_size=8192,
            initial_segments=2,
            map_fanout=8,
            security=SecurityProfile(enabled=False),
        )
        store, _ = _store(config)
        writes = _write_chunks(store)
        assert store.digest_memo is None
        report = store.scrub(deep=False)
        store.close()
        assert report.memo_skipped_chunks == 0
        assert report.verified_chunks == len(writes)


# ---------------------------------------------------------------------------
# The safety boundary: tampering, repair, salvage
# ---------------------------------------------------------------------------


class TestMemoSafetyBoundary:
    def test_deep_scrub_ignores_memo_and_catches_tampering(self):
        b = baseline()
        victim = sorted(b.expected)[3]
        loc = b.chunk_locator(victim)
        store, untrusted = b.fresh_store()
        assert store.scrub(deep=False).clean  # memo fully populated
        # Flip a payload byte behind the store's back.
        from repro.chunkstore.segments import segment_file_name

        name = segment_file_name(loc.segment)
        buf = bytearray(untrusted.read(name, 0, untrusted.size(name)))
        buf[loc.offset + loc.length // 2] ^= 0x40
        untrusted.write(name, 0, bytes(buf))
        # The incremental scrub cannot see the flip (stale memo entry);
        # that is exactly the documented trade-off...
        assert store.scrub(deep=False).clean
        # ...and the default deep scrub catches it.
        deep = store.scrub()  # deep=True is the default
        store.close()
        assert [d.chunk_id for d in deep.damaged_chunks] == [victim]

    def test_repair_engine_resets_memo_on_damage(self, monkeypatch):
        b = baseline()
        victim = sorted(b.expected)[2]
        loc = b.chunk_locator(victim)
        image = b.flip(b.image, loc.segment, loc.offset + 1)
        resets = []
        original = ChunkStore.reset_digest_memo

        def spy(self):
            resets.append(True)
            return original(self)

        monkeypatch.setattr(ChunkStore, "reset_digest_memo", spy)
        result, state = b.heal(image)
        assert result.healthy
        assert resets, "heal() repaired damage without resetting the memo"
        assert state == b.expected

    def test_salvage_store_has_no_memo(self):
        b = baseline()
        store = b.open_salvage(b.image)
        assert store.digest_memo is None
        # Without a memo, deep=False degrades to a full verification
        # walk: every chunk verified, nothing skipped.
        report = store.scrub(deep=False)
        store.close()
        assert report.clean
        assert report.memo_skipped_chunks == 0
        assert report.memo_skipped_nodes == 0
        assert report.verified_chunks == len(b.expected)

    def test_perf_counters_track_memo_traffic(self):
        store, _ = _store()
        _write_chunks(store, count=8)
        store.scrub(deep=False)
        stats = store.perf.as_dict()
        memo = stats["digest_memo"]
        assert memo["hits"] > 0
        assert 0.0 < memo["hit_rate"] <= 1.0
        assert "payload_digests" in stats["counters"]
        assert any(k.startswith("cipher.") for k in stats["kernels"])
        assert any(k.startswith("hash.") for k in stats["kernels"])
        # The same numbers ride along in the I/O stats dict (and from
        # there in the server's stats verb).
        io = store.untrusted.stats.as_dict()
        assert io["perf"]["digest_memo"]["hits"] == memo["hits"]
        store.close()
