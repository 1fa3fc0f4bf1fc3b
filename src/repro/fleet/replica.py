"""Replica lifecycle: isolated model copies, drain protocol, fleet specs.

A :class:`Replica` wraps one :class:`~repro.serving.server.InferenceServer`
in a named fleet *slot*.  The slot name is the replica's ring identity —
a reload swaps a fresh server into the same slot, so shard ownership never
moves during a reload — while ``generation`` counts how many times the
slot has been re-warmed.

**Isolation.**  Replicas must not share mutable model state: two decode
threads racing on one system's link memo is exactly the class of bug the
single-server design never had.  :func:`clone_backends` deep-copies each
backend's system and fallback per replica but *shares* the database object
(read-only at serve time, and by far the largest part), mirroring how real
replicas share storage but own their model weights.

**Drain.**  The router counts a replica's in-flight requests; ``drain()``
flips the slot to ``draining``, waits until the count hits zero (an
``asyncio.Event``, no polling), then stops the server.  Because the router
stops routing to a draining replica first, every accepted request
completes and none are dropped.

**Specs.**  A :class:`FleetSpec` is the pure-data description of what a
replica serves — system, regime, domains, and the adapter manifests behind
those domains (:func:`repro.adapters.specs_for`).  A replica factory in a
fresh context calls :meth:`FleetSpec.ensure_adapters` before building
backends, so reload never assumes the destination process already
registered the domains.
"""

from __future__ import annotations

import asyncio
import copy
from dataclasses import dataclass

from repro.resilience.clock import SYSTEM_CLOCK
from repro.serving.server import DomainBackend, InferenceServer, ServerConfig

#: Replica slot states.
SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"


@dataclass(frozen=True)
class FleetSpec:
    """Pure-data description of the fleet's serving surface."""

    system: str
    regime: str
    domains: tuple[str, ...]
    #: Named adapter manifest specs (:func:`repro.adapters.specs_for`).
    adapter_specs: tuple[dict, ...] = ()

    def ensure_adapters(self) -> None:
        """Re-register the domains' adapters (idempotent) before a build."""
        from repro.adapters import register_specs

        register_specs(self.adapter_specs)

    def as_dict(self) -> dict:
        return {
            "system": self.system,
            "regime": self.regime,
            "domains": list(self.domains),
            "adapter_specs": [dict(spec) for spec in self.adapter_specs],
        }


def clone_backends(
    backends: dict[str, DomainBackend] | list[DomainBackend],
) -> dict[str, DomainBackend]:
    """Replica-private copies of the backends (databases stay shared)."""
    if not isinstance(backends, dict):
        backends = {backend.name: backend for backend in backends}
    out: dict[str, DomainBackend] = {}
    for name, backend in backends.items():
        # Seeding the memo pins the database to the original object, so the
        # deep copy covers the system's mutable state (link memos, lexicon)
        # without duplicating the data it reads.
        memo: dict[int, object] = {}
        if backend.database is not None:
            memo[id(backend.database)] = backend.database
        out[name] = DomainBackend(
            name=backend.name,
            system=copy.deepcopy(backend.system, memo),
            database=backend.database,
            fallback=copy.deepcopy(backend.fallback, memo),
        )
    return out


class Replica:
    """One fleet slot: a server plus routing/drain bookkeeping."""

    def __init__(
        self,
        slot: str,
        server: InferenceServer,
        generation: int = 1,
        pool=None,
    ) -> None:
        self.slot = slot
        self.server = server
        self.generation = generation
        #: Decode worker pool under process isolation (None for threads).
        self.pool = pool
        self.state = SERVING
        self.inflight = 0
        self.served = 0
        self._drained = asyncio.Event()

    @property
    def domains(self) -> tuple[str, ...]:
        return tuple(self.server.backends)

    async def submit(self, question: str, domain: str):
        """Forward one request, tracking in-flight count for the drain."""
        self.inflight += 1
        try:
            return await self.server.submit(question, domain)
        finally:
            self.inflight -= 1
            self.served += 1
            if self.inflight == 0 and self.state == DRAINING:
                self._drained.set()

    async def drain(self) -> int:
        """Finish in-flight work, then stop the server; returns the count
        of requests that completed during the drain."""
        before = self.served
        self.state = DRAINING
        if self.inflight == 0:
            self._drained.set()
        await self._drained.wait()
        await self.server.stop()
        self.close()
        self.state = STOPPED
        return self.served - before

    def close(self) -> None:
        """Release the decode worker pool (no-op under thread isolation).

        Only called once no decode can be in flight (after ``server.stop``),
        so the non-waiting shutdown never abandons work."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def snapshot(self) -> dict:
        return {
            "slot": self.slot,
            "generation": self.generation,
            "state": self.state,
            "inflight": self.inflight,
            "served": self.served,
            "domains": list(self.domains),
            "pending": self.server.pending(),
            "cache": self.server.cache.stats(),
        }


def make_replica(
    slot: str,
    backends: dict[str, DomainBackend],
    config: ServerConfig,
    *,
    generation: int = 1,
    clone: bool = True,
    isolation: str = "thread",
    clock=SYSTEM_CLOCK,
) -> Replica:
    """Build one replica over (by default, private copies of) ``backends``.

    The server is labelled with its slot so every span it emits —
    ``serve.request``, ``serve.batch``, the stage spans beneath them —
    carries ``replica=<slot>`` and one trace shows the whole fleet.

    ``isolation`` picks where the replica decodes: ``"thread"`` (the
    server's own decode thread, GIL-shared with its siblings) or
    ``"process"`` (a forked worker owning the replica's model copy, so N
    replicas decode on N cores — :mod:`repro.fleet.procpool`).  Process
    isolation degrades to threads where ``fork`` is unavailable.
    """
    pool = None
    if isolation not in ("thread", "process"):
        raise ValueError(f"unknown replica isolation {isolation!r}")
    if isolation == "process":
        from repro.fleet.procpool import fork_available, process_backends

        if fork_available():
            backends, pool = process_backends(clone_backends(backends))
        else:
            isolation = "thread"
    if isolation == "thread" and clone:
        backends = clone_backends(backends)
    server = InferenceServer(
        backends, config, clock=clock, labels={"replica": slot}
    )
    return Replica(slot, server, generation=generation, pool=pool)
