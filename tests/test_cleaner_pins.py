"""Cleaner vs. snapshot/shipment pins: pinned bytes are inviolable.

A replication shipment is anchored in a pinned snapshot precisely so the
cleaner cannot recycle a segment a slow replica is still fetching.  The
property under test: while a pin is live, every anchored segment keeps
its anchored prefix byte-for-byte, no matter what mix of commits,
overwrites, cleaning passes, and checkpoints runs concurrently — and
once the pin is released the cleaner is free again.
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)

SECRET = b"0123456789abcdef0123456789abcdef"


def fresh_store(**overrides):
    defaults = dict(
        segment_size=4096,
        initial_segments=4,
        checkpoint_residual_bytes=8 * 1024,
        map_fanout=8,
        security=SecurityProfile(),
    )
    defaults.update(overrides)
    store = ChunkStore.format(
        MemoryUntrustedStore(),
        MemorySecretStore(SECRET),
        MemoryOneWayCounter(),
        ChunkStoreConfig(**defaults),
    )
    return store


def capture_anchor(store):
    """Anchor a shipment and copy every anchored prefix."""
    anchor = store.snapshot()
    assert anchor is not None
    frozen = {
        info.number: store.read_segment_bytes(info.number, 0, info.file_bytes)
        for info in anchor.segments
    }
    return anchor, frozen


def check_anchor_intact(store, anchor, frozen):
    for info in anchor.segments:
        assert not store.segments.segments[info.number].is_free, (
            f"segment {info.number} was recycled under an active pin"
        )
        got = store.read_segment_bytes(info.number, 0, info.file_bytes)
        assert got == frozen[info.number], (
            f"segment {info.number} anchored bytes changed under a pin"
        )


class TestPinProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.sampled_from(["write", "overwrite", "clean", "checkpoint"]),
            min_size=4,
            max_size=24,
        ),
        payload=st.integers(min_value=100, max_value=900),
    )
    def test_pinned_prefixes_survive_any_schedule(self, ops, payload):
        store = fresh_store()
        chunks = []
        try:
            # Seed enough data that cleaning has something to chew on.
            seed_writes = {}
            for _ in range(8):
                cid = store.allocate_chunk_id()
                seed_writes[cid] = b"s" * payload
                chunks.append(cid)
            store.commit(seed_writes)

            anchor, frozen = capture_anchor(store)
            try:
                for op in ops:
                    if op == "write":
                        cid = store.allocate_chunk_id()
                        store.write(cid, b"w" * payload)
                        chunks.append(cid)
                    elif op == "overwrite" and chunks:
                        store.write(chunks[0], b"o" * payload)
                    elif op == "clean":
                        store.clean()
                    elif op == "checkpoint":
                        store.checkpoint(force=True)
                    check_anchor_intact(store, anchor, frozen)
            finally:
                anchor.release()

            # With the pin gone, churn plus cleaning must be able to
            # reclaim: run a few rounds and require no pin-skip stalls.
            for _ in range(4):
                store.write(chunks[0], b"z" * payload)
                store.clean()
            live = {
                locator.segment for _cid, locator in store.location_map.iterate()
            }
            assert store.segments.tail_segment is not None
            assert live  # store still functions after release + cleaning
        finally:
            store.close()


class TestPinsUnderConcurrentCommits:
    def test_shipment_anchor_survives_committer_and_cleaner_threads(self):
        store = fresh_store()
        stop = threading.Event()
        errors = []

        def committer():
            cid = store.allocate_chunk_id()
            n = 0
            try:
                while not stop.is_set():
                    store.write(cid, f"v{n}".encode() * 100)
                    n += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def cleaner():
            try:
                while not stop.is_set():
                    store.clean()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            seed = []
            seed_writes = {}
            for _ in range(10):
                cid = store.allocate_chunk_id()
                seed_writes[cid] = b"seed" * 200
                seed.append(cid)
            store.commit(seed_writes)
            anchor, frozen = capture_anchor(store)

            threads = [
                threading.Thread(target=committer),
                threading.Thread(target=committer),
                threading.Thread(target=cleaner),
            ]
            for thread in threads:
                thread.start()
            try:
                for _ in range(50):
                    check_anchor_intact(store, anchor, frozen)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not errors, errors
            check_anchor_intact(store, anchor, frozen)
            anchor.release()

            # Release + churn: previously pinned segments become fair
            # game again (they at least may be freed; no assertion that
            # they must be, since liveness depends on the workload).
            store.commit({cid: b"churn" * 100 for cid in seed})
            store.clean()
            store.read_segment_bytes(
                store.segments.tail_segment, 0, 0
            )  # store still coherent
        finally:
            store.close()

    def test_released_pins_allow_reclaim(self):
        store = fresh_store()
        try:
            cids = []
            writes = {}
            for _ in range(12):
                cid = store.allocate_chunk_id()
                writes[cid] = b"d" * 800
                cids.append(cid)
            store.commit(writes)
            anchor, _frozen = capture_anchor(store)
            pinned = {info.number for info in anchor.segments}

            # Kill all the data so the pinned segments become pure dead
            # weight, then verify the cleaner honors the pin...
            store.commit({}, deallocs=cids)
            store.checkpoint(force=True)
            store.clean(max_segments=16)
            still_held = {
                number
                for number in pinned
                if not store.segments.segments[number].is_free
            }
            assert still_held == pinned

            # ...and reclaims once released.
            anchor.release()
            freed_total = 0
            for _ in range(8):
                freed_total += store.clean(max_segments=16)
                store.checkpoint(force=True)
            freed_pinned = {
                number
                for number in pinned
                if store.segments.segments.get(number) is None
                or store.segments.segments[number].is_free
            }
            assert freed_pinned, "cleaner never reclaimed released segments"
        finally:
            store.close()
