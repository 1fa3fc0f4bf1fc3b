"""The async NL-to-SQL inference server.

Request lifecycle::

    submit() ──> result cache ──hit──> ServeResult(cached=True)
        │ same key in flight ──────────> await the leader (single_flight=True)
        │ queue full? ────────────────> status "rejected" (admission control)
        ▼
    per-domain bounded asyncio.Queue
        ▼
    worker: collect_batch (max_batch / max_wait_ms)  ──>  decode thread:
        link warm → predict_batch → optional execute
        │ primary raises ──> per-question retry ──> template fallback
        ▼
    futures resolved, latencies recorded, primary answers cached,
    the leader settles its flight for every follower

Determinism contract: a batch deduplicates only *exact* duplicate
questions, and ``predict_batch`` is pure, so for any interleaving and any
batch size the served SQL is byte-identical to calling ``system.predict``
one question at a time (asserted across batch sizes and request orders in
``tests/test_serving.py``).  The result cache is the one deliberate
exception: it and its single-flight table key on the *normalized*
question, treating case/whitespace variants as the same question.  With
``cache_capacity=0`` neither exists and every question is served exactly
as ``system.predict`` returns it.

Robustness: admission is rejected explicitly when a domain's bounded queue
is full (no unbounded growth), every request carries a timeout that
surfaces as a structured ``timeout`` error, and a primary-system exception
degrades the request to the template fallback instead of failing it.  A
per-domain :class:`~repro.resilience.CircuitBreaker` guards the primary
system: after ``breaker_failures`` consecutive failures the server stops
calling the primary entirely and fast-fails to the fallback, probing the
primary again only after ``breaker_reset_s`` of the injected clock.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace

from repro.obs import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SYSTEM_CLOCK
from repro.serving.cache import CachedResult, ResultCache
from repro.serving.metrics import ServerMetrics, ServerStats
from repro.serving.request import ServeError, ServeResult
from repro.serving.scheduler import BatchPolicy, collect_batch


@dataclass
class DomainBackend:
    """Everything the server needs to answer questions for one domain."""

    name: str
    #: Primary system: ``predict(question, db_id)`` / ``predict_batch``.
    system: object
    #: Database for the optional execute stage (None disables it).
    database: object | None = None
    #: Degraded-mode system consulted when the primary raises.
    fallback: object | None = None


@dataclass(frozen=True)
class ServerConfig:
    """Scheduling and robustness knobs of one :class:`InferenceServer`."""

    max_batch: int = 8
    max_wait_ms: float = 2.0
    #: Bounded per-domain queue; a full queue rejects admissions.
    queue_limit: int = 64
    request_timeout_s: float = 30.0
    #: Result-cache entries (0 disables caching and single-flight).
    cache_capacity: int = 256
    #: Also execute the predicted SQL and attach the result rows.
    execute: bool = False
    #: Consecutive primary-system failures that open the circuit breaker.
    breaker_failures: int = 5
    #: Seconds the breaker stays open before probing the primary again.
    breaker_reset_s: float = 30.0


class _Pending:
    """One queued request awaiting its batch."""

    __slots__ = ("question", "future", "enqueued_at", "abandoned", "queue_span")

    def __init__(self, question: str, future: asyncio.Future, enqueued_at: float) -> None:
        self.question = question
        self.future = future
        self.enqueued_at = enqueued_at
        self.abandoned = False
        #: Open ``serve.queue`` span (NULL_SPAN when tracing is off); started
        #: at admission, ended by the worker that dequeues the request.
        self.queue_span = None


@dataclass
class _Answer:
    """Per-question outcome of a decoded batch."""

    sql: str | None = None
    status: str = "ok"
    message: str | None = None
    rows: tuple | None = None


@dataclass
class _BatchOutcome:
    """What one decode-thread run produced for a batch's unique questions."""

    answers: dict[str, _Answer] = field(default_factory=dict)
    link_s: float = 0.0
    decode_s: float = 0.0
    execute_s: float = 0.0


class InferenceServer:
    """Serves concurrent NL questions over a set of domain backends."""

    def __init__(
        self,
        backends: dict[str, DomainBackend] | list[DomainBackend],
        config: ServerConfig | None = None,
        clock=SYSTEM_CLOCK,
        labels: dict | None = None,
    ) -> None:
        if not isinstance(backends, dict):
            backends = {backend.name: backend for backend in backends}
        self.backends = dict(backends)
        self.config = config or ServerConfig()
        #: Static span attributes (e.g. ``replica=<slot>`` in a fleet) so
        #: one trace attributes every span to the server that emitted it.
        self.labels = dict(labels or {})
        self.cache = ResultCache(self.config.cache_capacity)
        self.metrics = ServerMetrics()
        self.clock = clock
        self._breakers = {
            name: CircuitBreaker(
                f"primary:{name}",
                failure_threshold=self.config.breaker_failures,
                reset_timeout_s=self.config.breaker_reset_s,
                clock=clock,
            )
            for name in self.backends
        }
        # Queues exist from construction so admission control (and tests)
        # do not depend on the workers having started yet.
        self._queues = {
            name: asyncio.Queue(maxsize=self.config.queue_limit)
            for name in self.backends
        }
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, len(self.backends)), thread_name_prefix="serve-decode"
        )
        for name in self.backends:
            self._workers.append(
                asyncio.create_task(self._worker(name), name=f"serve-{name}")
            )
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        # Fail whatever is still queued rather than leaving callers hanging.
        for domain, queue in self._queues.items():
            while True:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                get_tracer().end_span(item.queue_span, status="error")
                if not item.future.done():
                    self.metrics.count("failed")
                    item.future.set_result(
                        self._error_result(
                            item.question, domain, "failed",
                            ServeError("shutdown", "server stopped before decoding"),
                        )
                    )
        executor, self._executor = self._executor, None
        if executor is not None:
            # The (waiting) shutdown happens off the event loop so a slow
            # decode thread cannot stall every other coroutine.
            await asyncio.get_running_loop().run_in_executor(None, executor.shutdown)
        self._started = False

    async def __aenter__(self) -> "InferenceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the request path ---------------------------------------------------------

    async def submit(self, question: str, domain: str) -> ServeResult:
        """Serve one question; always resolves to a :class:`ServeResult`."""
        tracer = get_tracer()
        started = self.clock.now()
        with tracer.span("serve.request", domain=domain, **self.labels) as span:
            backend = self.backends.get(domain)
            if backend is None:
                span.set_attr("status", "failed")
                self.metrics.count("failed")
                return self._error_result(
                    question, domain, "failed",
                    ServeError("unknown-domain", f"domain {domain!r} is not served"),
                )

            hit, entry = self.cache.get(domain, question)
            if hit:
                span.set_attr("cache", "hit")
                span.set_attr("status", "ok")
                self.metrics.count("served")
                self.metrics.count("cache_hits")
                total = self.clock.now() - started
                self.metrics.observe("total", total)
                return ServeResult(
                    question=question, domain=domain, sql=entry.sql, rows=entry.rows,
                    status="ok", cached=True, timings_ms={"total": total * 1000.0},
                )
            span.set_attr("cache", "miss")

            flight = self.cache.flight(domain, question)
            if flight is not None and not flight.leader:
                span.set_attr("single_flight", True)
                # Shielded: a cancelled follower must not cancel the future
                # the leader and every other follower share.
                leader_result = await asyncio.shield(flight.future)
                result = self._follower_result(question, domain, leader_result, started)
            else:
                result = None
                try:
                    result = await self._enqueue(question, domain, started)
                finally:
                    # Followers must never hang: settle even if the wait
                    # raised (they synthesize a failure from ``None``).
                    if flight is not None:
                        self.cache.settle(flight, result)
            span.set_attr("status", result.status)
            return result

    async def _enqueue(self, question: str, domain: str, started: float) -> ServeResult:
        """Queue one question for its domain's worker and await the answer."""
        queue = self._queues[domain]
        if queue.full():
            self.metrics.count("rejected")
            return self._error_result(
                question, domain, "rejected",
                ServeError(
                    "rejected",
                    f"admission rejected: {domain!r} queue is at its limit "
                    f"of {self.config.queue_limit}",
                ),
            )
        item = _Pending(question, asyncio.get_running_loop().create_future(), started)
        # Parents to serve.request via the contextvar; the worker ends it.
        item.queue_span = get_tracer().start_span("serve.queue")
        queue.put_nowait(item)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(item.future), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            item.abandoned = True
            self.metrics.count("timeouts")
            return self._error_result(
                question, domain, "timeout",
                ServeError(
                    "timeout",
                    f"no result within {self.config.request_timeout_s:g}s",
                ),
            )
        total = self.clock.now() - started
        result.timings_ms["total"] = total * 1000.0
        self.metrics.observe("total", total)
        return result

    def _follower_result(
        self, question: str, domain: str, leader_result, started: float
    ) -> ServeResult:
        """A coalesced request's outcome: its leader's, under its own
        question and its own ``total`` time."""
        self.metrics.count("single_flight")
        total = self.clock.now() - started
        self.metrics.observe("total", total)
        if leader_result is None:
            self.metrics.count("failed")
            return ServeResult(
                question=question, domain=domain, status="failed",
                single_flight=True,
                error=ServeError(
                    "leader-crashed",
                    "the in-flight decode this request coalesced onto "
                    "crashed without a result",
                ),
                timings_ms={"total": total * 1000.0},
            )
        status = leader_result.status
        if leader_result.ok:
            self.metrics.count("served")
        if status != "ok":
            # Every other status names its counter, except ``timeouts``.
            self.metrics.count("timeouts" if status == "timeout" else status)
        # Only ``total`` is this request's own; the leader's batch and stage
        # timings (queue/link/decode) describe work the follower never did.
        return dc_replace(
            leader_result,
            question=question,
            single_flight=True,
            batch_size=0,
            timings_ms={"total": total * 1000.0},
        )

    def pending(self) -> int:
        """Requests currently queued (admitted, not yet dequeued)."""
        return sum(queue.qsize() for queue in self._queues.values())

    def stats(self) -> ServerStats:
        """A point-in-time observability snapshot."""
        return self.metrics.snapshot(
            pending=self.pending(),
            cache=self.cache.stats(),
            breakers=self.breaker_states(),
        )

    def breaker_states(self) -> dict[str, dict]:
        """Per-domain circuit-breaker snapshots (state + counters)."""
        return {name: breaker.snapshot() for name, breaker in self._breakers.items()}

    # -- batch execution ----------------------------------------------------------

    async def _worker(self, domain: str) -> None:
        backend = self.backends[domain]
        queue = self._queues[domain]
        policy = BatchPolicy(self.config.max_batch, self.config.max_wait_ms)
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        while True:
            batch = await collect_batch(queue, policy, clock=self.clock.now)
            now = self.clock.now()
            live: list[_Pending] = []
            for item in batch:
                tracer.end_span(item.queue_span)
                if item.abandoned or item.future.done():
                    continue
                self.metrics.observe("queue", now - item.enqueued_at)
                live.append(item)
            if not live:
                continue
            questions = [item.question for item in live]
            # Manual span: decode happens on the executor thread, which does
            # not inherit this task's context.
            batch_span = tracer.start_span(
                "serve.batch", domain=domain, size=len(live), **self.labels
            )
            outcome = await loop.run_in_executor(
                self._executor, self._decode_batch, backend, questions, batch_span
            )
            self._resolve(backend, live, outcome, batch_span)

    def _decode_batch(
        self, backend: DomainBackend, questions: list[str], batch_span=None
    ) -> _BatchOutcome:
        """Runs in the decode thread: link warm → predict_batch → execute."""
        tracer = get_tracer()
        outcome = _BatchOutcome()
        unique = list(dict.fromkeys(questions))

        # Stage 1: schema linking, warmed once per batch.  The systems' link
        # memo makes every decode below reuse these results.
        started = self.clock.now()
        stage_span = tracer.start_span("serve.link", parent=batch_span)
        link = getattr(backend.system, "link", None)
        if link is not None:
            for question in unique:
                try:
                    link(question, backend.name)
                # checks: ignore[hyg.broad-except] -- warm-up is best-effort by design; any linking failure recurs inside predict and is handled there
                except Exception:
                    pass  # linking trouble surfaces as a decode failure below
        tracer.end_span(stage_span)
        outcome.link_s = self.clock.now() - started

        # Stage 2: decoding, with per-question degradation on failure.  The
        # breaker gate is checked once per batch: an open circuit fast-fails
        # the whole batch to the fallback without touching the primary.
        started = self.clock.now()
        stage_span = tracer.start_span(
            "serve.predict", parent=batch_span, n_unique=len(unique)
        )
        breaker = self._breakers[backend.name]
        if not breaker.allow():
            stage_span.set_attr("breaker", "open")
            for question in unique:
                outcome.answers[question] = self._fallback_answer(
                    backend, question,
                    f"circuit breaker open for primary:{backend.name}: "
                    "primary system skipped",
                )
        else:
            try:
                batch_sql = backend.system.predict_batch(unique, backend.name)
                for question, sql in zip(unique, batch_sql):
                    outcome.answers[question] = _Answer(sql=sql)
                breaker.record_success()
            except Exception as batch_exc:
                breaker.record_failure()
                stage_span.set_attr("batch_error", type(batch_exc).__name__)
                for question in unique:
                    outcome.answers[question] = self._decode_one(backend, question)
        tracer.end_span(stage_span)
        outcome.decode_s = self.clock.now() - started

        # Stage 3: optional execution of the predicted SQL.
        if self.config.execute and backend.database is not None:
            started = self.clock.now()
            stage_span = tracer.start_span("serve.execute", parent=batch_span)
            for answer in outcome.answers.values():
                if answer.sql is None:
                    continue
                result = backend.database.try_execute(answer.sql)
                if result is not None:
                    answer.rows = tuple(result.rows)
            tracer.end_span(stage_span)
            outcome.execute_s = self.clock.now() - started
        return outcome

    def _decode_one(self, backend: DomainBackend, question: str) -> _Answer:
        breaker = self._breakers[backend.name]
        if not breaker.allow():
            return self._fallback_answer(
                backend, question,
                f"circuit breaker open for primary:{backend.name}: "
                "primary system skipped",
            )
        try:
            answer = _Answer(sql=backend.system.predict(question, backend.name))
        except Exception as primary_exc:
            breaker.record_failure()
            return self._fallback_answer(
                backend, question,
                f"primary system raised {type(primary_exc).__name__}: "
                f"{primary_exc}",
            )
        breaker.record_success()
        return answer

    def _fallback_answer(
        self, backend: DomainBackend, question: str, reason: str
    ) -> _Answer:
        """Serve ``question`` without the primary system (it raised, or the
        breaker fast-failed it): degraded via the fallback when one exists."""
        if backend.fallback is None:
            return _Answer(
                status="failed",
                message=f"{reason} (no fallback configured)",
            )
        try:
            sql = backend.fallback.predict(question, backend.name)
        except Exception as fallback_exc:
            return _Answer(
                status="failed",
                message=f"{reason}; fallback raised "
                        f"{type(fallback_exc).__name__}",
            )
        return _Answer(sql=sql, status="degraded", message=reason)

    def _resolve(
        self,
        backend: DomainBackend,
        items: list[_Pending],
        outcome: _BatchOutcome,
        batch_span=None,
    ) -> None:
        """Back on the event loop: account the batch and resolve futures."""
        n_unique = len(outcome.answers)
        if batch_span is not None:
            batch_span.set_attr("n_unique", n_unique)
            get_tracer().end_span(batch_span)
        self.metrics.count("batches")
        self.metrics.count("coalesced", len(items) - n_unique)
        if len(items) >= 2:
            self.metrics.count("batched", len(items))
        self.metrics.observe("link", outcome.link_s)
        self.metrics.observe("decode", outcome.decode_s)
        if self.config.execute:
            self.metrics.observe("execute", outcome.execute_s)

        stage_ms = {
            "link": outcome.link_s * 1000.0,
            "decode": outcome.decode_s * 1000.0,
        }
        if self.config.execute:
            stage_ms["execute"] = outcome.execute_s * 1000.0

        cached: set[str] = set()
        for item in items:
            answer = outcome.answers[item.question]
            if answer.status == "ok" and item.question not in cached:
                self.cache.put(
                    backend.name, item.question,
                    CachedResult(sql=answer.sql, rows=answer.rows),
                )
                cached.add(item.question)
            if answer.status == "failed":
                self.metrics.count("failed")
            else:
                self.metrics.count("served")
                if answer.status == "degraded":
                    self.metrics.count("degraded")
            if item.future.done():
                continue  # timed out mid-decode; the result is discarded
            error = None
            if answer.status in ("degraded", "failed"):
                kind = "degraded" if answer.status == "degraded" else "decode-failed"
                error = ServeError(kind, answer.message or "")
            item.future.set_result(
                ServeResult(
                    question=item.question,
                    domain=backend.name,
                    sql=answer.sql,
                    rows=answer.rows,
                    status=answer.status,
                    error=error,
                    batch_size=len(items),
                    timings_ms={
                        "queue": (self.clock.now() - item.enqueued_at) * 1000.0,
                        **stage_ms,
                    },
                )
            )

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _error_result(
        question: str, domain: str, status: str, error: ServeError
    ) -> ServeResult:
        return ServeResult(
            question=question, domain=domain, status=status, error=error
        )
