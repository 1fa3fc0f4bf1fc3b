"""Request/result types of the serving layer.

A served request always resolves to a :class:`ServeResult` — robustness
outcomes (admission rejection, timeout, decode failure) are structured
statuses with a :class:`ServeError` attached, never bare exceptions, so
load generators and callers can account for every request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Terminal request statuses.
#:
#: ``ok``        decoded by the primary system (possibly from the cache)
#: ``degraded``  primary raised; answered by the template fallback
#: ``rejected``  bounded queue was full — explicit admission rejection
#: ``timeout``   no result within the per-request timeout
#: ``failed``    decode failed and no fallback could answer
STATUSES = ("ok", "degraded", "rejected", "timeout", "failed")


@dataclass(frozen=True)
class ServeError:
    """A structured serving error: machine-readable kind + human message."""

    kind: str
    message: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message}


@dataclass
class ServeResult:
    """The outcome of one served request."""

    question: str
    domain: str
    sql: str | None = None
    #: Executed result rows when the server runs with ``execute=True``.
    rows: tuple | None = None
    status: str = "ok"
    error: ServeError | None = None
    #: Served from the result cache (no decode happened for this request).
    cached: bool = False
    #: Slot of the fleet replica that answered this request, from its
    #: cache, its single-flight table or a decode (None outside a fleet,
    #: and for requests the router answered itself: quota rejections,
    #: unknown domains, no live replica).
    replica: str | None = None
    #: Coalesced onto a concurrent request's in-flight decode of the same
    #: normalized question by the server's single-flight table (no decode
    #: happened for this request either).
    single_flight: bool = False
    #: Tenant the fleet router accounted this request to (None outside a
    #: fleet; the single server has no tenant concept).
    tenant: str | None = None
    #: Number of requests decoded together with this one (0 for non-decoded
    #: outcomes: cache hits, single-flight followers, rejections, timeouts).
    batch_size: int = 0
    #: Per-stage wall time in milliseconds.  ``queue`` and ``total`` are
    #: per-request; ``link``/``decode``/``execute`` are the batch's shared
    #: stage durations.
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the request produced an answer (possibly degraded)."""
        return self.status in ("ok", "degraded")
