"""``repro.obs`` — unified observability: structured tracing + metrics.

The subsystem has three pieces:

* **Tracing** (:mod:`repro.obs.tracer`): a :class:`Tracer` records
  hierarchical :class:`~repro.obs.span.Span` trees across threads, asyncio
  tasks and the runtime's process-pool boundary.  Off by default — the
  process-wide tracer is :data:`NULL_TRACER` until :func:`set_tracer`
  installs a real one (the ``sciencebenchmark trace`` CLI wrapper does), so
  instrumented hot paths cost almost nothing when tracing is off.
* **Metrics** (:mod:`repro.obs.metrics`): a thread-safe
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket histograms,
  with one shared latency-bucket layout for the whole repo.
* **Exporters** (:mod:`repro.obs.export`): Chrome ``trace_event`` JSON,
  a JSONL span log, a terminal flame summary, and the bench reports'
  shared envelope, percentile and writer.

Determinism contract: span ids come from counters (no RNG), tracing reads
the injectable clock only, and no instrument feeds any content hash — so
artifact bytes are identical with tracing on or off, and enabling tracing
cannot shift a seeded random stream.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    flame_summary,
    validate_span_log,
    write_chrome_trace,
    write_span_log,
)
from repro.obs.metrics import (
    LATENCY_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    geometric_bounds,
    merged_snapshot,
)
from repro.obs.span import Span, SpanEvent
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer

__all__ = [
    "LATENCY_BUCKET_BOUNDS",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "current_trace_path",
    "flame_summary",
    "geometric_bounds",
    "get_tracer",
    "merged_snapshot",
    "set_trace_path",
    "set_tracer",
    "use_tracer",
    "validate_span_log",
    "write_chrome_trace",
    "write_span_log",
]

#: The process-wide tracer consulted by every instrumented module.
_active_tracer = NULL_TRACER

#: Where the current ``trace`` CLI invocation will write its artifact, so
#: benchmark reports produced under it can reference the trace file.
_trace_path: str | None = None


def get_tracer():
    """The active tracer (:data:`NULL_TRACER` unless tracing is on)."""
    return _active_tracer


def set_tracer(tracer) -> object:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


class _UseTracer:
    """Context manager installing a tracer for the duration of a block."""

    def __init__(self, tracer) -> None:
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info) -> bool:
        set_tracer(self._previous)
        return False


def use_tracer(tracer) -> _UseTracer:
    """``with use_tracer(Tracer()) as tracer: ...`` — scoped installation."""
    return _UseTracer(tracer)


def current_trace_path() -> str | None:
    """The trace artifact path of the enclosing ``trace`` run, if any."""
    return _trace_path


def set_trace_path(path: str | None) -> str | None:
    """Record the planned trace artifact path; returns the previous value."""
    global _trace_path
    previous = _trace_path
    _trace_path = path
    return previous
