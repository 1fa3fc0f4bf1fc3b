"""The server's result cache: a bounded LRU plus a single-flight table.

The key goes through :func:`repro.textutil.normalize_question` — the same
canonicalization schema linking is built on — so case/whitespace variants
of one question share a single entry.  Only primary (non-degraded) results
are cached; degraded answers must not outlive the incident that caused
them.

Single-flight closes the window the store alone leaves open: a result is
only cached *after* it decodes, so K concurrent identical questions would
decode K times.  Here the first request for a key becomes the **leader**
and goes on to the queue; every concurrent duplicate becomes a
**follower** that awaits the leader's future instead.  The table lives on
the server's event loop — registration is synchronous (no await between
lookup and insert), so exactly one leader per key is guaranteed, not
merely likely.

Leaders must always settle their flight (:meth:`ResultCache.settle` runs
in a ``finally``), otherwise followers would hang; a leader that crashes
without a result settles its followers with ``None``.

In a fleet each replica owns one of these caches, and the router sends
every key to the one replica that owns it, so the fleet caches and
coalesces each key there.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.lru import BoundedLRU
from repro.textutil import normalize_question


@dataclass(frozen=True)
class CachedResult:
    """The cached payload of one served question."""

    sql: str | None
    rows: tuple | None = None


class Flight:
    """One in-flight decode: the leader resolves, followers await."""

    __slots__ = ("key", "leader", "future")

    def __init__(self, key: tuple[str, str], leader: bool, future: asyncio.Future) -> None:
        self.key = key
        self.leader = leader
        self.future = future


class ResultCache:
    """Bounded LRU of served answers plus the in-flight future table.

    ``capacity <= 0`` disables the cache entirely: every lookup is a
    silent miss, stores are dropped and no flights exist, so each request
    is decoded on its own — the unbatched benchmark arm and byte-identity
    tests run in that mode.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.store: BoundedLRU[tuple[str, str], CachedResult] = BoundedLRU(capacity)
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        #: Followers that awaited a leader instead of decoding.
        self.coalesced = 0
        #: Leaders that settled without a result (crash/cancellation).
        self.aborted = 0

    @staticmethod
    def key(domain: str, question: str) -> tuple[str, str]:
        return (domain, normalize_question(question))

    def __len__(self) -> int:
        return len(self.store)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- result store --------------------------------------------------------------

    def get(self, domain: str, question: str) -> tuple[bool, CachedResult | None]:
        """``(hit, entry)`` for a question; a hit refreshes recency."""
        entry = self.store.get(self.key(domain, question))
        return entry is not None, entry

    def put(self, domain: str, question: str, entry: CachedResult) -> None:
        self.store.put(self.key(domain, question), entry)

    # -- single-flight -------------------------------------------------------------

    def flight(self, domain: str, question: str) -> Flight | None:
        """Join the in-flight decode for this key, or lead a new one
        (``None`` when the cache is disabled).

        Must be called (and the returned leader settled) on one event
        loop; there is deliberately no lock here — atomicity comes from
        the absence of any await point.
        """
        if not self.store.enabled:
            return None
        key = self.key(domain, question)
        future = self._inflight.get(key)
        if future is not None:
            self.coalesced += 1
            return Flight(key, leader=False, future=future)
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return Flight(key, leader=True, future=future)

    def settle(self, flight: Flight, result) -> None:
        """Resolve a leader's flight for every follower and retire it.

        ``result is None`` means the leader crashed before producing a
        :class:`~repro.serving.request.ServeResult`; followers are settled
        with ``None`` and must synthesize their own failure.
        """
        if not flight.leader:
            raise ValueError("only the flight leader settles it")
        if self._inflight.get(flight.key) is flight.future:
            del self._inflight[flight.key]
        if result is None:
            self.aborted += 1
        if not flight.future.done():
            flight.future.set_result(result)

    def stats(self) -> dict:
        return {
            **self.store.stats(),
            "inflight": self.inflight,
            "singleflight_coalesced": self.coalesced,
            "singleflight_aborted": self.aborted,
        }
