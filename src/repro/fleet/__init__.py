"""``repro.fleet`` — the sharded multi-replica serving tier.

One :class:`~repro.serving.server.InferenceServer` per process caps
throughput at a single event loop and decode thread.  This package puts a
fleet in front: a :class:`~repro.fleet.router.FleetRouter` consistent-hashes
requests by ``(domain, normalized question)`` onto per-domain shards over N
replica slots (:mod:`repro.fleet.hashring`).  That is the servers' own
result-cache key, so each key has one owner replica whose result cache and
single-flight table (:mod:`repro.serving.cache`) answer its repeats and
decode each in-flight question exactly once across the whole fleet; the
router itself holds no results.  Per-tenant token-bucket quotas reject
over-limit tenants structurally at admission (:mod:`repro.fleet.quotas`),
a failed or full shard owner fails over to its ring sibling, and under
process isolation (what ``serve-bench`` runs) each replica decodes in its
own forked worker (:mod:`repro.fleet.replica`, :mod:`repro.fleet.procpool`).

Determinism contract: routing hashes are process-independent, replicas own
private model copies, and ``predict`` is pure — so for a fixed seed, fleet
answers are byte-identical to the single-replica server's.
"""

from repro.fleet.hashring import HashRing, stable_hash
from repro.fleet.procpool import ProcessSystem, fork_available, process_backends
from repro.fleet.quotas import QuotaPolicy, TenantQuotas, TokenBucket
from repro.fleet.replica import Replica, clone_backends, make_replica
from repro.fleet.router import FleetConfig, FleetError, FleetRouter, build_fleet

__all__ = [
    "FleetConfig",
    "FleetError",
    "FleetRouter",
    "HashRing",
    "ProcessSystem",
    "QuotaPolicy",
    "Replica",
    "TenantQuotas",
    "TokenBucket",
    "build_fleet",
    "clone_backends",
    "fork_available",
    "make_replica",
    "process_backends",
    "stable_hash",
]
