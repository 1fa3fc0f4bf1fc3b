"""One bounded LRU map behind every bounded memo in the repo.

The serving result store (:mod:`repro.serving.cache`), the schema-linking
memo (:meth:`repro.nl2sql.base.NLToSQLSystem.link`) and the vector engine's
plan caches (:mod:`repro.engine.vector.executor`) all keep recently used
entries up to a fixed count and evict the least recently used one first.

:class:`BoundedLRU` is plain data: an ``OrderedDict`` plus integer
hit/miss/eviction counters, with no lock and no registry handle.  Trained
systems carrying a link memo are pickled into the artifact cache and
deep-copied per fleet replica, and both round trips keep the entries and
the counters.  An owner that shares one map across threads holds its own
lock around it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """At most ``capacity`` entries, least recently used evicted first.

    ``get`` refreshes an entry's recency and counts a hit or a miss; ``key
    in lru`` is a pure probe that does neither.  ``capacity <= 0`` disables
    the map: lookups miss without being counted and stores are dropped.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: K) -> V | None:
        """The entry under ``key`` (now the most recent), else ``None``."""
        if not self.enabled:
            return None
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting past capacity."""
        if not self.enabled:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep their totals."""
        self._entries.clear()

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
