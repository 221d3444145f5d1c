"""Tests for the shared LRU cache (paper section 4.2.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import SharedLruCache


class TestBasics:
    def test_put_get_roundtrip(self):
        cache = SharedLruCache(1024)
        cache.put("obj", 1, "value", 10)
        assert cache.get("obj", 1) == "value"

    def test_get_missing_returns_none_and_counts_miss(self):
        cache = SharedLruCache(1024)
        assert cache.get("obj", 42) is None
        assert cache.stats.misses == 1

    def test_namespaces_are_disjoint(self):
        cache = SharedLruCache(1024)
        cache.put("obj", 1, "object", 10)
        cache.put("map", 1, "node", 10)
        assert cache.get("obj", 1) == "object"
        assert cache.get("map", 1) == "node"

    def test_replace_updates_charge(self):
        cache = SharedLruCache(1024)
        cache.put("obj", 1, "small", 10)
        cache.put("obj", 1, "bigger", 100)
        assert cache.stats.charged_bytes == 100
        assert cache.get("obj", 1) == "bigger"

    def test_remove(self):
        cache = SharedLruCache(1024)
        cache.put("obj", 1, "v", 10)
        cache.remove("obj", 1)
        assert cache.get("obj", 1) is None
        assert cache.stats.charged_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            SharedLruCache(0)

    def test_negative_charge_rejected(self):
        cache = SharedLruCache(100)
        with pytest.raises(ValueError):
            cache.put("obj", 1, "v", -1)


class TestEviction:
    def test_lru_order_eviction(self):
        cache = SharedLruCache(30)
        cache.put("obj", 1, "a", 10)
        cache.put("obj", 2, "b", 10)
        cache.put("obj", 3, "c", 10)
        cache.get("obj", 1)  # touch 1, making 2 the coldest
        cache.put("obj", 4, "d", 10)
        assert cache.get("obj", 2) is None
        assert cache.get("obj", 1) == "a"

    def test_eviction_callback_runs(self):
        evicted = []
        cache = SharedLruCache(20)
        cache.put("obj", 1, "a", 10, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("obj", 2, "b", 10)
        cache.put("obj", 3, "c", 10)
        assert evicted == [(1, "a")]

    def test_pinned_entries_survive_eviction(self):
        cache = SharedLruCache(20)
        cache.put("obj", 1, "dirty", 10)
        cache.pin("obj", 1)
        cache.put("obj", 2, "b", 10)
        cache.put("obj", 3, "c", 10)
        assert cache.get("obj", 1) == "dirty"  # pinned: never evicted
        assert cache.get("obj", 2) is None

    def test_unpin_makes_evictable(self):
        cache = SharedLruCache(20)
        cache.put("obj", 1, "a", 10)
        cache.pin("obj", 1)
        cache.unpin("obj", 1)
        cache.put("obj", 2, "b", 10)
        cache.put("obj", 3, "c", 10)
        assert cache.get("obj", 1) is None

    def test_pin_is_reference_counted(self):
        cache = SharedLruCache(20)
        cache.put("obj", 1, "a", 10)
        cache.pin("obj", 1)
        cache.pin("obj", 1)
        cache.unpin("obj", 1)
        cache.put("obj", 2, "b", 10)
        cache.put("obj", 3, "c", 10)
        assert cache.get("obj", 1) == "a"  # one pin still held
        assert cache.pin_count("obj", 1) == 1

    def test_unbalanced_unpin_raises(self):
        cache = SharedLruCache(20)
        cache.put("obj", 1, "a", 10)
        with pytest.raises(ValueError):
            cache.unpin("obj", 1)

    def test_pin_missing_raises(self):
        cache = SharedLruCache(20)
        with pytest.raises(KeyError):
            cache.pin("obj", 404)

    def test_replace_preserves_pins(self):
        cache = SharedLruCache(100)
        cache.put("obj", 1, "a", 10)
        cache.pin("obj", 1)
        cache.put("obj", 1, "a2", 10)
        assert cache.pin_count("obj", 1) == 1

    def test_budget_can_be_exceeded_by_pins_only(self):
        cache = SharedLruCache(15)
        cache.put("obj", 1, "a", 10)
        cache.pin("obj", 1)
        cache.put("obj", 2, "b", 10)
        cache.pin("obj", 2)
        # Both pinned: charged bytes exceed the budget, by design.
        assert cache.stats.charged_bytes == 20
        cache.put("obj", 3, "c", 10)
        cache.put("obj", 4, "d", 10)
        # The freshly inserted entry is protected from its own insertion's
        # eviction pass, but becomes the victim of the next one.
        assert cache.get("obj", 3) is None
        assert cache.get("obj", 4) == "d"


class TestMaintenance:
    def test_update_charge(self):
        cache = SharedLruCache(100)
        cache.put("obj", 1, "a", 10)
        cache.update_charge("obj", 1, 50)
        assert cache.stats.charged_bytes == 50

    def test_update_charge_missing_raises(self):
        cache = SharedLruCache(100)
        with pytest.raises(KeyError):
            cache.update_charge("obj", 1, 50)

    def test_items_filters_namespace(self):
        cache = SharedLruCache(100)
        cache.put("a", 1, "x", 1)
        cache.put("b", 2, "y", 1)
        cache.put("a", 3, "z", 1)
        assert dict(cache.items("a")) == {1: "x", 3: "z"}

    def test_clear_namespace(self):
        cache = SharedLruCache(100)
        cache.put("a", 1, "x", 10)
        cache.put("b", 2, "y", 10)
        cache.clear_namespace("a")
        assert cache.get("a", 1) is None
        assert cache.get("b", 2) == "y"
        assert cache.stats.charged_bytes == 10

    def test_peek_does_not_touch(self):
        cache = SharedLruCache(20)
        cache.put("obj", 1, "a", 10)
        cache.put("obj", 2, "b", 10)
        cache.peek("obj", 1)  # must NOT promote 1
        cache.put("obj", 3, "c", 10)
        assert cache.get("obj", 1) is None

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(1, 20)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_property_charged_bytes_consistent(self, operations):
        cache = SharedLruCache(64)
        for key, charge in operations:
            cache.put("ns", key, f"v{key}", charge)
        total = sum(
            entry.charge for entry in cache._entries.values()
        )
        assert cache.stats.charged_bytes == total
        assert cache.stats.charged_bytes <= 64  # nothing pinned here


class TestEvictionWalk:
    """Eviction walks from the cold end and stops at the budget."""

    def fill(self, cache, count, charge=10, log=None):
        on_evict = None if log is None else (lambda k, v: log.append(k))
        for key in range(count):
            cache.put("obj", key, f"v{key}", charge, on_evict=on_evict)

    def test_cold_first_and_stops_at_budget(self):
        cache = SharedLruCache(50)
        self.fill(cache, 5)
        cache.get("obj", 0)  # 0 turns hot: cold order is now 1, 2, 3, 4, 0
        cache.put("obj", 9, "big", 25)
        # 75 charged bytes: dropping 1, 2 and 3 reaches the budget, and
        # the walk goes no further.
        assert [cache.peek("obj", k) is not None for k in (0, 1, 2, 3, 4, 9)] == [
            True, False, False, False, True, True,
        ]
        assert cache.stats.charged_bytes == 45
        assert cache.stats.evictions == 3

    def test_pinned_cold_entry_is_skipped(self):
        cache = SharedLruCache(30)
        self.fill(cache, 3)
        cache.pin("obj", 0)
        cache.put("obj", 3, "d", 10)
        assert cache.peek("obj", 0) == "v0"
        assert cache.peek("obj", 1) is None
        assert cache.stats.charged_bytes == 30

    def test_pins_may_hold_the_cache_over_budget(self):
        cache = SharedLruCache(20)
        self.fill(cache, 2)
        cache.pin("obj", 0)
        cache.pin("obj", 1)
        cache.put("obj", 2, "c", 10)
        # Nothing is evictable but the protected newcomer.
        assert cache.stats.charged_bytes == 30
        assert cache.stats.evictions == 0
        assert [cache.peek("obj", k) for k in range(3)] == ["v0", "v1", "c"]

    def test_protected_newcomer_survives_its_own_insert(self):
        cache = SharedLruCache(20)
        self.fill(cache, 2)
        cache.put("obj", 2, "huge", 100)
        assert cache.peek("obj", 2) == "huge"
        assert cache.peek("obj", 0) is None and cache.peek("obj", 1) is None
        assert cache.stats.charged_bytes == 100

    def test_on_evict_runs_once_per_victim_in_order(self):
        log = []
        cache = SharedLruCache(40)
        self.fill(cache, 4, log=log)
        cache.put("obj", 4, "e", 30, on_evict=lambda k, v: log.append(k))
        assert log == [0, 1, 2]
        cache.put("obj", 5, "f", 10)
        assert log == [0, 1, 2, 3]
        assert cache.stats.evictions == 4

    def test_unpin_drains_the_overshoot(self):
        cache = SharedLruCache(20)
        self.fill(cache, 2)
        cache.pin("obj", 0)
        cache.pin("obj", 1)
        cache.put("obj", 2, "c", 10)
        cache.unpin("obj", 0)
        assert cache.peek("obj", 0) is None
        assert cache.stats.charged_bytes == 20
