"""Replica slots: isolated model copies and their decode worker pools.

A :class:`Replica` names one fleet *slot* and holds the slot's
:class:`~repro.serving.server.InferenceServer`.  The slot name is the
replica's ring identity; the router calls the server directly, and the
replica itself owns only the decode worker pool under process isolation.

**Isolation.**  Replicas must not share mutable model state: two decode
threads racing on one system's link memo is exactly the class of bug the
single-server design never had.  :func:`clone_backends` deep-copies each
backend's system and fallback per replica but *shares* the database object
(read-only at serve time, and by far the largest part), mirroring how real
replicas share storage but own their model weights.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fleet import procpool
from repro.resilience.clock import SYSTEM_CLOCK
from repro.serving.server import DomainBackend, InferenceServer, ServerConfig

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


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


@dataclass(frozen=True)
class Replica:
    """One fleet slot: its server and the decode worker pool it owns."""

    slot: str
    server: InferenceServer
    #: Decode worker pool under process isolation (None for threads).
    pool: ProcessPoolExecutor | None = None

    def close(self) -> None:
        """Release the decode worker pool (no-op under thread isolation).

        Only called once no decode can be in flight (after ``server.stop``),
        so the non-waiting shutdown never abandons work."""
        if self.pool is not None:
            self.pool.shutdown(wait=False)


def make_replica(
    slot: str,
    backends: dict[str, DomainBackend],
    config: ServerConfig,
    *,
    isolation: str = "thread",
    clock=SYSTEM_CLOCK,
) -> Replica:
    """Build one replica over private copies of ``backends``.

    The server is labelled with its slot so every span it emits —
    ``serve.request``, ``serve.batch``, the stage spans beneath them —
    carries ``replica=<slot>`` and one trace shows the whole fleet.

    ``isolation`` picks where the replica decodes: ``"thread"`` (the
    server's own decode thread, GIL-shared with its siblings) or
    ``"process"`` (a forked worker owning the replica's model copy, so N
    replicas decode on N cores — :mod:`repro.fleet.procpool`).  Process
    isolation degrades to threads where ``fork`` is unavailable.
    """
    if isolation not in ("thread", "process"):
        raise ValueError(f"unknown replica isolation {isolation!r}")
    pool = None
    backends = clone_backends(backends)
    if isolation == "process" and procpool.fork_available():
        backends, pool = procpool.process_backends(backends)
    server = InferenceServer(
        backends, config, clock=clock, labels={"replica": slot}
    )
    return Replica(slot, server, pool)
