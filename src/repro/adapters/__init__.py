"""``repro.adapters`` — the pluggable domain-adapter registry.

The adapter protocol
--------------------
A *domain adapter* is one self-contained module exposing a build entry
point::

    def build(scale: float = 1.0, seed: int = <default>) -> BenchmarkDomain

The returned :class:`~repro.datasets.records.BenchmarkDomain` bundles
everything a domain contributes to the benchmark: the schema and populated
database, the enhanced schema, the value generators' output (the data
itself), the NL lexicon hooks, and the expert-written Seed/Dev NL-SQL pairs.
``scale`` multiplies synthetic row counts; ``seed`` makes the build
reproducible.  The three paper domains (cordis, sdss, oncomx) follow exactly
this convention and are registered as builtins — a new domain is one new
module plus one :class:`AdapterManifest`, no edits to existing code.

Registration is manifest-driven and lazy::

    from repro import adapters

    adapters.register(adapters.AdapterManifest(
        name="climate", module="my_pkg.climate", description="toy domain"))
    domain = adapters.get_adapter("climate").build(scale=0.5)

``list_adapters()`` is always sorted, so resolution never depends on import
or registration order.
"""

from __future__ import annotations

from typing import Protocol

from repro.adapters.manifest import AdapterManifest
from repro.adapters.registry import (
    BUILTIN_MANIFESTS,
    METRICS,
    DomainAdapter,
    builder_from_spec,
    get_adapter,
    get_manifest,
    list_adapters,
    load_adapter_source,
    register,
    temporary,
    unregister,
)
from repro.errors import AdapterError

__all__ = [
    "AdapterError",
    "AdapterManifest",
    "BUILTIN_MANIFESTS",
    "METRICS",
    "DomainAdapter",
    "DomainBuilder",
    "builder_from_spec",
    "get_adapter",
    "get_manifest",
    "list_adapters",
    "load_adapter_source",
    "register",
    "temporary",
    "unregister",
]


class DomainBuilder(Protocol):
    """The adapter protocol's build entry point (structural typing only)."""

    def __call__(self, scale: float = ..., seed: int = ...):  # pragma: no cover
        ...
