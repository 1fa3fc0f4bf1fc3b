"""The fleet router: shards, quotas, failover, reload.

Request lifecycle::

    submit(question, domain, tenant)
        │ tenant token bucket empty ──────────> "rejected" (kind "quota")
        ▼
    consistent-hash ring for the domain: owner slot, then siblings
        │ owner breaker open / answer "failed" or "rejected"
        │         └──> retry the shard on the next sibling (fleet.retries)
        ▼
    replica.submit → InferenceServer (cache → flight → queue → batch)

The router holds no results.  Its ring keys on ``(domain, normalized
question)`` — the server's result-cache key — so every key lands on the
one replica that owns it, and that replica's cache and single-flight table
answer repeats and coalesce concurrent duplicates for the whole fleet.
Only failover gives a key a second copy (on the sibling that served it),
and copies cannot diverge: replicas are clones and ``predict`` is pure.

Routing is deterministic: the ring hashes with
:func:`~repro.fleet.hashring.stable_hash`, so a fixed request stream
always shards the same way.  Combined with replica-private model copies
(:func:`~repro.fleet.replica.clone_backends`) and pure ``predict``, fleet
answers are byte-identical to a single replica's.

Zero-downtime reload (:meth:`FleetRouter.reload`) is rolling, one slot at
a time: build a fresh replica from the factory (warm-started from the
artifact cache when the factory loads through the runtime), start it,
atomically swap it into the slot — the ring keys on slot names, so shard
ownership does not move — then drain the old replica (finish its in-flight
requests, stop it).  No accepted request is dropped, and no cached answer
outlives its model generation: the swapped-in server starts with an empty
cache, and the old server's cache leaves with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.fleet.hashring import HashRing
from repro.fleet.quotas import TenantQuotas
from repro.fleet.replica import Replica, make_replica
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry, merged_snapshot
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SYSTEM_CLOCK
from repro.serving.request import ServeError, ServeResult
from repro.serving.server import ServerConfig
from repro.textutil import normalize_question


class FleetError(ReproError):
    """Misconfiguration of the fleet tier (not a per-request failure)."""


@dataclass(frozen=True)
class FleetConfig:
    """Routing and robustness knobs of one :class:`FleetRouter`."""

    #: Virtual nodes per replica slot on each domain's ring.
    vnodes: int = 64
    #: Sibling replicas tried after the shard owner fails.
    retries: int = 1
    #: Result statuses that fail over to a sibling.  ``rejected`` (a full
    #: replica queue) spills load to the sibling; ``failed`` retries a
    #: replica-local fault.  Timeouts never retry — the latency budget is
    #: already spent.
    retry_statuses: tuple[str, ...] = ("failed", "rejected")
    #: Consecutive replica failures that open its circuit breaker.
    breaker_failures: int = 5
    #: Seconds a replica's breaker stays open before probing it again.
    breaker_reset_s: float = 30.0
    #: Where replicas decode: ``"thread"`` shares the interpreter (cheap,
    #: GIL-bound), ``"process"`` forks one decode worker per replica so the
    #: fleet scales CPU-bound models across cores
    #: (:mod:`repro.fleet.procpool`).
    isolation: str = "thread"


#: Router-level counters (``fleet.*`` in the registry).
COUNTERS = (
    "requests",       # everything submitted to the router
    "routed",         # requests dispatched to a replica
    "retries",        # shard retried on a sibling replica
    "fast_failed",    # replicas skipped because their breaker was open
    "quota_rejected", # admissions rejected by a tenant quota
    "no_replica",     # no live replica could take the request
    "reloads",        # completed reload() rolls
    "swapped",        # replicas swapped during reloads
)


class FleetRouter:
    """Routes requests over a set of replica slots."""

    def __init__(
        self,
        config: FleetConfig | None = None,
        quotas: TenantQuotas | None = None,
        factory=None,
        clock=SYSTEM_CLOCK,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.quotas = quotas
        #: ``() -> dict[str, DomainBackend]`` used by :meth:`reload`.
        self.factory = factory
        self.clock = clock
        self.registry = registry or MetricsRegistry()
        self._replicas: dict[str, Replica] = {}
        self._rings: dict[str, HashRing] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._counters = {
            name: self.registry.counter(f"fleet.{name}") for name in COUNTERS
        }
        self._replica_gauge = self.registry.gauge("fleet.replicas")
        self._started = False

    # -- membership -----------------------------------------------------------------

    def add_replica(self, replica: Replica) -> None:
        if replica.slot in self._replicas:
            raise FleetError(f"slot {replica.slot!r} is already occupied")
        self._replicas[replica.slot] = replica
        self._breakers[replica.slot] = self._new_breaker(replica.slot)
        for domain in replica.domains:
            ring = self._rings.get(domain)
            if ring is None:
                ring = self._rings[domain] = HashRing(vnodes=self.config.vnodes)
            ring.add(replica.slot)
        self._replica_gauge.set(len(self._replicas))

    def _new_breaker(self, slot: str) -> CircuitBreaker:
        return CircuitBreaker(
            f"replica:{slot}",
            failure_threshold=self.config.breaker_failures,
            reset_timeout_s=self.config.breaker_reset_s,
            clock=self.clock,
        )

    @property
    def replicas(self) -> dict[str, Replica]:
        return dict(self._replicas)

    def domains(self) -> tuple[str, ...]:
        return tuple(sorted(self._rings))

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        for replica in self._replicas.values():
            await replica.server.start()
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        for replica in self._replicas.values():
            await replica.server.stop()
            replica.close()
        self._started = False

    async def __aenter__(self) -> "FleetRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the request path -----------------------------------------------------------

    async def submit(
        self, question: str, domain: str, tenant: str = "default"
    ) -> ServeResult:
        """Serve one question through the fleet; never raises per-request."""
        tracer = get_tracer()
        with tracer.span("fleet.request", domain=domain, tenant=tenant) as span:
            self._count("requests")
            self._tenant_count(tenant, "requests")

            if self.quotas is not None and not self.quotas.admit(tenant):
                self._count("quota_rejected")
                self._tenant_count(tenant, "rejected")
                span.set_attr("status", "rejected")
                return ServeResult(
                    question=question, domain=domain, status="rejected",
                    tenant=tenant,
                    error=ServeError(
                        "quota",
                        f"tenant {tenant!r} exceeded its request quota",
                    ),
                )

            ring = self._rings.get(domain)
            if ring is None or not len(ring):
                span.set_attr("status", "failed")
                return ServeResult(
                    question=question, domain=domain, status="failed",
                    tenant=tenant,
                    error=ServeError(
                        "unknown-domain", f"no replica serves domain {domain!r}"
                    ),
                )

            result = await self._dispatch(question, domain, ring, span)
            result.tenant = tenant
            self._tenant_count(
                tenant, "served" if result.ok else result.status
            )
            span.set_attr("status", result.status)
            return result

    async def _dispatch(
        self, question: str, domain: str, ring: HashRing, span
    ) -> ServeResult:
        """Try the shard owner, then its ring-order siblings."""
        # The server's result-cache key within the domain's ring, so the
        # owner is the one replica that caches and coalesces this question.
        key = normalize_question(question)
        candidates = ring.nodes_for(key, self.config.retries + 1)
        last: ServeResult | None = None
        attempted = 0
        for slot in candidates:
            replica = self._replicas.get(slot)
            if replica is None or replica.state != "serving":
                continue
            breaker = self._breakers[slot]
            if not breaker.allow():
                self._count("fast_failed")
                continue
            if attempted:
                self._count("retries")
                get_tracer().add_event(span, "fleet.retry", replica=slot)
            attempted += 1
            self._count("routed")
            result = await replica.submit(question, domain)
            result.replica = slot
            if result.status in self.config.retry_statuses:
                breaker.record_failure()
                last = result
                continue
            breaker.record_success()
            span.set_attr("replica", slot)
            return result
        if last is not None:
            return last
        self._count("no_replica")
        return ServeResult(
            question=question, domain=domain, status="failed",
            error=ServeError(
                "no-replica",
                f"no live replica available for domain {domain!r} "
                "(all candidates draining or circuit-open)",
            ),
        )

    # -- zero-downtime reload -------------------------------------------------------

    async def reload(self, factory=None) -> dict:
        """Rolling warm reload of every slot; returns a swap report.

        For each slot: build fresh backends from the factory, start the new
        replica, atomically swap it into the slot (the ring keys on slot
        names, so no shard ownership moves), reset the slot's breaker, then
        drain and stop the old replica.  New requests route to the new
        replica the moment the swap lands; requests the old replica already
        accepted complete on it.  The fresh replica starts with an empty
        result cache, so no answer of the old generation is served again.
        """
        factory = factory or self.factory
        if factory is None:
            raise FleetError(
                "reload needs a replica factory (FleetRouter(factory=...) "
                "or reload(factory=...))"
            )
        tracer = get_tracer()
        swaps = []
        with tracer.span("fleet.reload", slots=len(self._replicas)):
            for slot in list(self._replicas):
                old = self._replicas[slot]
                with tracer.span("fleet.swap", slot=slot) as span:
                    fresh = make_replica(
                        slot,
                        factory(),
                        old.server.config,
                        generation=old.generation + 1,
                        isolation=self.config.isolation,
                        clock=self.clock,
                    )
                    await fresh.server.start()
                    # The swap: one assignment, observed atomically by every
                    # later submit; the ring is untouched.
                    self._replicas[slot] = fresh
                    self._breakers[slot] = self._new_breaker(slot)
                    self._count("swapped")
                    drained = await old.drain()
                    span.set_attr("generation", fresh.generation)
                    span.set_attr("drained", drained)
                swaps.append(
                    {
                        "slot": slot,
                        "generation": fresh.generation,
                        "drained_requests": drained,
                    }
                )
        self._count("reloads")
        return {"swaps": swaps}

    # -- observability ----------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def _tenant_count(self, tenant: str, outcome: str) -> None:
        self.registry.counter(f"fleet.tenant.{tenant}.{outcome}").inc()

    @property
    def counters(self) -> dict:
        return {name: counter.value for name, counter in self._counters.items()}

    def pending(self) -> int:
        """Queued requests across every replica (the fleet's queue depth)."""
        return sum(
            replica.server.pending() for replica in self._replicas.values()
        )

    def stats(self) -> dict:
        """A point-in-time fleet snapshot (JSON-serializable)."""
        return {
            "counters": self.counters,
            "pending": self.pending(),
            "replicas": {
                slot: replica.snapshot()
                for slot, replica in sorted(self._replicas.items())
            },
            "breakers": {
                slot: breaker.snapshot()
                for slot, breaker in sorted(self._breakers.items())
            },
            "quotas": self.quotas.snapshot() if self.quotas else {},
            "shards": {
                domain: ring.nodes()
                for domain, ring in sorted(self._rings.items())
            },
        }

    def metrics_view(self) -> dict:
        """One merged registry snapshot covering the router and every
        replica (``fleet.*`` plus ``replica.<slot>.serving.*``)."""
        parts = {"": self.registry}
        for slot, replica in sorted(self._replicas.items()):
            parts[f"replica.{slot}"] = replica.server.metrics.registry
        return merged_snapshot(parts)


def build_fleet(
    backends,
    replicas: int,
    server_config: ServerConfig | None = None,
    config: FleetConfig | None = None,
    quotas: TenantQuotas | None = None,
    factory=None,
    clock=SYSTEM_CLOCK,
) -> FleetRouter:
    """Assemble a router over ``replicas`` cloned slots of ``backends``.

    Every replica runs ``server_config``, result cache included: the ring
    sends each key to one owner, so the owners' caches never overlap.  The
    default reload factory re-serves the same backends (fresh clones per
    replica).
    """
    if replicas < 1:
        raise FleetError("a fleet needs at least one replica")
    server_config = server_config or ServerConfig()
    router = FleetRouter(
        config=config,
        quotas=quotas,
        factory=factory or (lambda: backends),
        clock=clock,
    )
    for index in range(replicas):
        router.add_replica(
            make_replica(
                f"r{index}",
                backends,
                server_config,
                isolation=router.config.isolation,
                clock=clock,
            )
        )
    return router
