"""A shared LRU cache with pinning and byte-charged entries.

The paper shares one LRU list between the object cache and the chunk
store's cache of location-map entries, "allow[ing] dynamic apportioning of
total cache space to different caches based on need" (section 4.2.2).
This module is that shared list: each layer inserts entries under its own
key namespace with a byte charge; eviction walks from the cold end,
skipping pinned entries (dirty objects under the no-steal policy, dirty
map nodes before a checkpoint, objects referenced by live Refs).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = ["SharedLruCache", "CacheStats"]


@dataclass
class CacheStats:
    """Observability counters for a :class:`SharedLruCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    charged_bytes: int = 0
    entries: int = 0


class _Entry:
    __slots__ = ("value", "charge", "pins", "on_evict")

    def __init__(self, value: Any, charge: int, on_evict: Optional[Callable]) -> None:
        self.value = value
        self.charge = charge
        self.pins = 0
        self.on_evict = on_evict


class SharedLruCache:
    """LRU cache of ``(namespace, key)`` entries bounded by a byte budget.

    * ``put`` inserts or replaces an entry with an explicit byte ``charge``
      (the unpickled object size estimate, a map node size, ...).
    * ``get`` returns the value and moves the entry to the hot end.
    * ``pin``/``unpin`` protect an entry from eviction (reference-counted,
      like the Ref counts of section 4.2.2).
    * Eviction runs inside ``put`` whenever the budget is exceeded and may
      call the entry's ``on_evict`` callback (used by write-back caches).
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[Tuple[str, Any], _Entry]" = OrderedDict()
        self.stats = CacheStats()

    # -- core operations -----------------------------------------------------

    def put(
        self,
        namespace: str,
        key: Any,
        value: Any,
        charge: int,
        on_evict: Optional[Callable[[Any, Any], None]] = None,
    ) -> None:
        """Insert or replace ``(namespace, key)``; may trigger evictions."""
        if charge < 0:
            raise ValueError("charge must be non-negative")
        full_key = (namespace, key)
        existing = self._entries.pop(full_key, None)
        if existing is not None:
            self.stats.charged_bytes -= existing.charge
        entry = _Entry(value, charge, on_evict)
        if existing is not None:
            entry.pins = existing.pins
        self._entries[full_key] = entry
        self.stats.charged_bytes += charge
        self.stats.entries = len(self._entries)
        # The entry being inserted is never its own eviction victim: the
        # caller must get a chance to use (or pin) it first.
        self._evict_to_budget(protect=full_key)

    def get(self, namespace: str, key: Any) -> Any:
        """Return the cached value or ``None``; touches the entry."""
        full_key = (namespace, key)
        entry = self._entries.get(full_key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(full_key)
        self.stats.hits += 1
        return entry.value

    def peek(self, namespace: str, key: Any) -> Any:
        """Return the cached value or ``None`` without touching LRU order."""
        entry = self._entries.get((namespace, key))
        return None if entry is None else entry.value

    def contains(self, namespace: str, key: Any) -> bool:
        return (namespace, key) in self._entries

    def remove(self, namespace: str, key: Any) -> None:
        """Drop an entry if present (no eviction callback)."""
        entry = self._entries.pop((namespace, key), None)
        if entry is not None:
            self.stats.charged_bytes -= entry.charge
            self.stats.entries = len(self._entries)

    # -- pinning ---------------------------------------------------------------

    def pin(self, namespace: str, key: Any) -> None:
        """Protect an entry from eviction (reference counted)."""
        entry = self._entries.get((namespace, key))
        if entry is None:
            raise KeyError(f"cannot pin absent cache entry {namespace}:{key!r}")
        entry.pins += 1

    def unpin(self, namespace: str, key: Any) -> None:
        """Release one pin; entries become evictable at zero pins.

        A cache pushed over budget by pinned entries (the no-steal policy
        allows that) shrinks back as the pins drain.
        """
        entry = self._entries.get((namespace, key))
        if entry is None:
            raise KeyError(f"cannot unpin absent cache entry {namespace}:{key!r}")
        if entry.pins <= 0:
            raise ValueError(f"unbalanced unpin for {namespace}:{key!r}")
        entry.pins -= 1
        if entry.pins == 0:
            self._evict_to_budget()

    def pin_count(self, namespace: str, key: Any) -> int:
        entry = self._entries.get((namespace, key))
        return 0 if entry is None else entry.pins

    # -- maintenance -------------------------------------------------------------

    def update_charge(self, namespace: str, key: Any, charge: int) -> None:
        """Re-price an entry (e.g. an object grew while dirty)."""
        entry = self._entries.get((namespace, key))
        if entry is None:
            raise KeyError(f"cannot re-charge absent entry {namespace}:{key!r}")
        self.stats.charged_bytes += charge - entry.charge
        entry.charge = charge
        self._evict_to_budget()

    def items(self, namespace: str) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs of one namespace (cold to hot)."""
        for (ns, key), entry in list(self._entries.items()):
            if ns == namespace:
                yield key, entry.value

    def clear_namespace(self, namespace: str) -> None:
        """Drop every entry of one namespace (no eviction callbacks)."""
        for full_key in [fk for fk in self._entries if fk[0] == namespace]:
            entry = self._entries.pop(full_key)
            self.stats.charged_bytes -= entry.charge
        self.stats.entries = len(self._entries)

    def _evict_to_budget(self, protect: Optional[Tuple[str, Any]] = None) -> None:
        excess = self.stats.charged_bytes - self.budget_bytes
        if excess <= 0:
            return
        # Walk from the cold end only as far as the budget needs; pinned
        # entries are skipped, so a cache full of pinned entries may
        # legitimately exceed its budget (the no-steal policy forbids
        # dropping dirty objects mid-transaction).  Victims are chosen
        # first and dropped after, as the walk cannot outlive a mutation.
        victims = []
        for full_key, entry in self._entries.items():
            if entry.pins > 0 or full_key == protect:
                continue
            victims.append((full_key, entry))
            excess -= entry.charge
            if excess <= 0:
                break
        for full_key, entry in victims:
            del self._entries[full_key]
            self.stats.charged_bytes -= entry.charge
            self.stats.evictions += 1
            if entry.on_evict is not None:
                entry.on_evict(full_key[1], entry.value)
        self.stats.entries = len(self._entries)
