"""Serving observability: counters, per-stage latency histograms, snapshots.

Backed by the unified :class:`~repro.obs.metrics.MetricsRegistry` — every
counter and histogram here is a registry instrument (``serving.*``), so a
server's accounting appears in the same snapshot as the runtime's and the
resilience layer's.  Latency buckets are the repo-wide shared layout
(:data:`~repro.obs.metrics.LATENCY_BUCKET_BOUNDS`, ≈50µs … ≈80s), not a
module-local copy, which keeps histogram percentiles consistent with the
load generator's exact-sample percentile math.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import LATENCY_BUCKET_BOUNDS, Histogram, MetricsRegistry

#: Pipeline stages with recorded latencies.  ``queue`` and ``total`` are
#: per-request; ``link``/``decode``/``execute`` are per-batch durations.
STAGES = ("queue", "link", "decode", "execute", "total")

#: Monotonic counters kept by :class:`ServerMetrics`.
COUNTERS = (
    "served",      # requests resolved with an answer (ok or degraded)
    "batches",     # predict_batch invocations
    "batched",     # requests decoded as part of a batch of size >= 2
    "coalesced",   # duplicate in-batch questions merged into one decode
    "cache_hits",  # requests answered from the result cache
    "single_flight",  # requests coalesced onto a concurrent leader's decode
    "rejected",    # admission rejections (bounded queue full)
    "degraded",    # requests answered by the fallback system
    "timeouts",    # requests that hit the per-request timeout
    "failed",      # requests with no answer at all
)


class LatencyHistogram(Histogram):
    """The shared fixed-bucket histogram, summarised in milliseconds."""

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKET_BOUNDS) -> None:
        super().__init__(bounds)

    def summary(self) -> dict:
        """Count / mean / p50 / p95 / p99 / max, times in milliseconds."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1000.0,
            "p50_ms": self.quantile(0.50) * 1000.0,
            "p95_ms": self.quantile(0.95) * 1000.0,
            "p99_ms": self.quantile(0.99) * 1000.0,
            "max_ms": self.max * 1000.0,
        }


@dataclass(frozen=True)
class ServerStats:
    """One immutable observability snapshot of a running server."""

    counters: dict
    latency_ms: dict
    cache: dict
    pending: int
    #: Per-domain circuit-breaker snapshots ({} when no breakers exist).
    breakers: dict = None  # type: ignore[assignment]

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "latency_ms": {k: dict(v) for k, v in self.latency_ms.items()},
            "cache": dict(self.cache),
            "pending": self.pending,
            "breakers": {k: dict(v) for k, v in (self.breakers or {}).items()},
        }


class ServerMetrics:
    """Counters + per-stage histograms over one :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"serving.{name}") for name in COUNTERS
        }
        self.histograms = {
            stage: self.registry.histogram(
                f"serving.latency.{stage}", cls=LatencyHistogram
            )
            for stage in STAGES
        }

    @property
    def counters(self) -> dict:
        return {name: counter.value for name, counter in self._counters.items()}

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def observe(self, stage: str, seconds: float) -> None:
        self.histograms[stage].observe(seconds)

    def snapshot(
        self,
        *,
        pending: int = 0,
        cache: dict | None = None,
        breakers: dict | None = None,
    ) -> ServerStats:
        return ServerStats(
            counters=self.counters,
            latency_ms={
                stage: histogram.summary()
                for stage, histogram in self.histograms.items()
            },
            cache=dict(cache or {}),
            pending=pending,
            breakers=dict(breakers or {}),
        )
