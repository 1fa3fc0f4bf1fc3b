"""Deterministic fault injection & recovery across every execution layer.

The subsystem has three independent pieces that compose:

* **fault plans** (:mod:`~repro.resilience.faults`) — seeded, stateless
  schedules deciding *(site, identity, attempt)* → fault kind by pure hash,
  so chaos runs reproduce bit-for-bit and never perturb artifact RNG;
* **recovery primitives** — :class:`RetryPolicy` (exponential backoff with
  deterministic jitter and budget caps) and :class:`CircuitBreaker`
  (closed/open/half-open per dependency), both driven through an injectable
  :mod:`~repro.resilience.clock`;
* **accounting** — :class:`DeadLetter` records for permanently-failed work
  and :class:`ResilienceStats` retry histograms, surfaced in pipeline and
  runtime reports and in ``benchmarks/BENCH_resilience.json``.

``chaos-bench`` (:mod:`~repro.resilience.chaosbench`) replays the pipeline
and a Table-5 slice under a named schedule and asserts that with
transient-only faults every output is byte-identical to the fault-free run.
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.resilience.breaker": ("CircuitBreaker", "CircuitOpenError"),
        "repro.resilience.clock": ("SYSTEM_CLOCK", "FakeClock", "SystemClock"),
        "repro.resilience.deadletter": ("DeadLetter", "ResilienceStats"),
        "repro.resilience.faults": (
            "ALL_KINDS",
            "CACHE_KINDS",
            "PERMANENT_KINDS",
            "SCHEDULES",
            "TRANSIENT_ERRORS",
            "TRANSIENT_KINDS",
            "FaultError",
            "FaultPlan",
            "FaultRule",
            "MalformedCompletionError",
            "PermanentFault",
            "RateLimitFault",
            "TimeoutFault",
            "WorkerCrashFault",
            "raise_fault",
        ),
        "repro.resilience.flaky": ("FlakyModel",),
        "repro.resilience.retry": ("RetryOutcome", "RetryPolicy", "call_with_retry"),
    },
)

__all__ = [
    "ALL_KINDS",
    "CACHE_KINDS",
    "PERMANENT_KINDS",
    "SCHEDULES",
    "TRANSIENT_ERRORS",
    "TRANSIENT_KINDS",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadLetter",
    "FakeClock",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "FlakyModel",
    "MalformedCompletionError",
    "PermanentFault",
    "RateLimitFault",
    "ResilienceStats",
    "RetryOutcome",
    "RetryPolicy",
    "SYSTEM_CLOCK",
    "SystemClock",
    "TimeoutFault",
    "WorkerCrashFault",
    "call_with_retry",
    "raise_fault",
]
