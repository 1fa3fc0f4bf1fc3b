"""Warm-start loading of trained systems from the artifact cache.

Serving never trains: it asks the suite's task graph for the already
trained per-domain systems (``train:<system>:<domain>:<regime>``), the
domain artifacts and the regime's lexicons, which the runtime satisfies
from its content-addressed disk cache when one is configured, and attaches
each system to its served domain only.  :func:`load_backends` also *probes*
the runtime first, so callers can report whether the start was warm
(every artifact cached or memoized) or had to compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import registry
from repro.experiments.tasks import attach_target, domain_task, train_task
from repro.serving.fallback import TemplateFallback
from repro.serving.server import DomainBackend


@dataclass(frozen=True)
class ServingBundle:
    """Everything :func:`load_backends` materialized for a server."""

    #: domain name -> ready backend
    backends: dict
    system_name: str
    regime: str
    #: True when every required artifact came from the cache (no training).
    warm: bool
    #: Named adapter manifest specs behind the served domains
    #: (:func:`repro.adapters.specs_for`) — the fleet ships these with every
    #: replica spec so a reload factory can re-register the domains before
    #: rebuilding backends in a context that never imported them.
    adapter_specs: tuple[dict, ...] = ()

    def fleet_spec(self):
        """The pure-data :class:`~repro.fleet.replica.FleetSpec` equivalent."""
        from repro.fleet.replica import FleetSpec

        return FleetSpec(
            system=self.system_name,
            regime=self.regime,
            domains=tuple(self.backends),
            adapter_specs=self.adapter_specs,
        )


def load_backends(
    suite,
    domains: tuple[str, ...] | None = None,
    system_name: str = "valuenet",
    regime: str = "both",
    with_fallback: bool = True,
) -> ServingBundle:
    """Load one trained backend per domain out of the suite's runtime.

    ``domains`` defaults to the suite's own domain set (``config.domains``,
    resolved through the adapter registry).  The server's optional execute
    stage runs on each domain database's own engine, the vector engine."""
    from repro.adapters import specs_for

    if domains is None:
        domains = suite.domain_names()
    names = registry.serving_tasks(system_name, domains, regime)
    statuses = suite.runtime.probe(suite.graph, names)
    warm = all(status != "compute" for status in statuses.values())
    suite.ensure(names)

    backends: dict[str, DomainBackend] = {}
    for name in domains:
        domain = suite.artifact(domain_task(name))
        system = attach_target(
            suite.artifact(train_task(system_name, name, regime)), name, regime,
            suite.artifact,
        )
        fallback = None
        if with_fallback:
            fallback = TemplateFallback()
            fallback.register_database(name, domain.database, domain.enhanced)
        backends[name] = DomainBackend(
            name=name, system=system, database=domain.database, fallback=fallback
        )
    return ServingBundle(
        backends=backends, system_name=system_name, regime=regime, warm=warm,
        adapter_specs=specs_for(domains),
    )
