"""Async NL-to-SQL inference service over trained benchmark systems.

The subsystem turns the offline experiment artifacts into an online
service: trained per-domain systems are warm-started from the runtime's
artifact cache (:mod:`repro.serving.loader`), concurrent questions flow
through bounded per-domain queues into a micro-batching scheduler
(:mod:`repro.serving.scheduler`), decoded answers land in a normalized
LRU result cache whose single-flight table decodes concurrent repeats of
a question once (:mod:`repro.serving.cache`), and every stage is
observable (:mod:`repro.serving.metrics`).  ``serve-bench``
(:mod:`repro.serving.loadgen`) replays dev-split questions to quantify
what batching and caching buy.

The server owns the only result cache.  In a fleet
(:mod:`repro.fleet`) every replica's server keeps its own, and the router
sends each ``(domain, normalized question)`` key to the one replica that
owns it, so the router needs no cache of its own.
"""

from repro.serving.cache import CachedResult, ResultCache
from repro.serving.fallback import TemplateFallback
from repro.serving.loader import ServingBundle, load_backends
from repro.serving.loadgen import (
    FleetProfile,
    LoadProfile,
    build_stream,
    evaluate_gates,
    render_report,
    replay,
    run_serve_bench,
)
from repro.serving.metrics import LatencyHistogram, ServerMetrics, ServerStats
from repro.serving.request import STATUSES, ServeError, ServeResult
from repro.serving.scheduler import BatchPolicy, collect_batch
from repro.serving.server import DomainBackend, InferenceServer, ServerConfig

__all__ = [
    "BatchPolicy",
    "CachedResult",
    "DomainBackend",
    "FleetProfile",
    "InferenceServer",
    "LatencyHistogram",
    "LoadProfile",
    "ResultCache",
    "STATUSES",
    "ServeError",
    "ServeResult",
    "ServerConfig",
    "ServerMetrics",
    "ServerStats",
    "ServingBundle",
    "TemplateFallback",
    "build_stream",
    "collect_batch",
    "evaluate_gates",
    "load_backends",
    "render_report",
    "replay",
    "run_serve_bench",
]
