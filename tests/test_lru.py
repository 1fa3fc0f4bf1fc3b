"""Tests for the shared bounded LRU map (repro.lru.BoundedLRU)."""

from __future__ import annotations

import copy
import pickle

from repro.lru import BoundedLRU


def test_get_refreshes_recency_and_put_evicts_least_recent():
    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # "a" is now the most recent
    lru.put("c", 3)  # evicts "b", not "a"
    assert "b" not in lru
    assert lru.get("a") == 1 and lru.get("c") == 3
    assert lru.get("b") is None
    assert len(lru) == 2
    assert (lru.hits, lru.misses, lru.evictions) == (3, 1, 1)


def test_put_of_an_existing_key_refreshes_it():
    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)  # overwrite moves "a" to the recent end
    lru.put("c", 3)
    assert "b" not in lru
    assert lru.get("a") == 10
    assert lru.evictions == 1


def test_eviction_follows_insertion_order_without_reads():
    lru = BoundedLRU(3)
    for i in range(6):
        lru.put(i, str(i))
    assert [key for key in range(6) if key in lru] == [3, 4, 5]
    assert lru.evictions == 3


def test_capacity_zero_or_negative_disables():
    for capacity in (0, -1):
        lru = BoundedLRU(capacity)
        assert not lru.enabled
        lru.put("a", 1)
        assert len(lru) == 0
        assert "a" not in lru
        assert lru.get("a") is None
        assert lru.stats()["hits"] == 0 and lru.stats()["misses"] == 0


def test_membership_probe_has_no_side_effects():
    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    before = lru.stats()
    assert "a" in lru and "z" not in lru
    assert lru.stats() == before  # no hit or miss counted
    lru.put("c", 3)  # "a" was probed, not read: it is still the oldest
    assert "a" not in lru and "b" in lru


def test_clear_keeps_counters():
    lru = BoundedLRU(4)
    lru.put("a", 1)
    lru.get("a")
    lru.get("z")
    lru.clear()
    assert len(lru) == 0
    assert lru.stats()["hits"] == 1 and lru.stats()["misses"] == 1


def test_pickle_and_deepcopy_keep_entries_and_counters():
    lru = BoundedLRU(2)
    lru.put(("db", "q1"), ["links", 1])
    lru.put(("db", "q2"), ["links", 2])
    lru.get(("db", "q1"))
    lru.get(("db", "missing"))
    lru.put(("db", "q3"), ["links", 3])
    for twin in (pickle.loads(pickle.dumps(lru)), copy.deepcopy(lru)):
        assert twin.stats() == lru.stats()
        assert twin.get(("db", "q1")) == ["links", 1]
        assert ("db", "q2") not in twin
        # Recency order survives the round trip: after the read of q1
        # above, q3 is the oldest entry, so q4 evicts it.
        twin.put(("db", "q4"), ["links", 4])
        assert ("db", "q3") not in twin and ("db", "q1") in twin
    assert lru.get(("db", "q3")) == ["links", 3]  # the original is untouched
