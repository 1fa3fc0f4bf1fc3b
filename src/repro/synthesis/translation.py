"""Phase 3 — SQL-to-NL Translation (Section 3.3.3), with recovery.

Each generated SQL query is handed to a (simulated) large language model,
which emits ``n_candidates`` natural-language question candidates (the paper
uses 8 to maximise linguistic diversity).  For domain-specific databases the
model is first fine-tuned on the domain's seed pairs, transferring the
domain lexicon — the offline counterpart of fine-tuning GPT-3 on the
manually created seed NL/SQL pairs.

In production the translation phase drives a live API, so this is where
faults concentrate: rate limits, timeouts, truncated or malformed
completions.  The translator therefore

* **validates** every completion (right candidate count, non-empty text) —
  a truncated or malformed response is detected client-side and raised as a
  retryable fault, exactly as a real API client would;
* **retries** transient faults under a :class:`~repro.resilience.RetryPolicy`
  (exponential backoff, deterministic seeded jitter, budget cap);
* optionally consults a :class:`~repro.resilience.CircuitBreaker` guarding
  the model dependency;
* on exhaustion or a permanent fault, reports a structured
  :class:`TranslationFailure` so the pipeline can dead-letter the query
  instead of aborting the run.

Because the model's RNG is keyed by (model seed, SQL text) — never by call
order or attempt — a retried translation is byte-identical to a first-try
success, which is what keeps chaos runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.records import BenchmarkDomain
from repro.errors import ReproError
from repro.llm.base import SqlToNlModel
from repro.llm.models import default_generator
from repro.obs import get_tracer
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.clock import SYSTEM_CLOCK
from repro.resilience.deadletter import DeadLetter
from repro.resilience.faults import (
    TRANSIENT_ERRORS,
    FaultError,
    MalformedCompletionError,
)
from repro.resilience.retry import RetryOutcome, RetryPolicy, call_with_retry


class TranslationFailure(ReproError):
    """A query the translation phase gave up on (permanent fault or
    exhausted retry budget); carries the structured dead-letter reason."""

    def __init__(self, sql: str, kind: str, attempts: int, reason: str) -> None:
        super().__init__(
            f"translation of {sql!r} failed permanently after {attempts} "
            f"attempt(s): [{kind}] {reason}"
        )
        self.sql = sql
        self.kind = kind
        self.attempts = attempts
        self.reason = reason

    def dead_letter(self) -> DeadLetter:
        return DeadLetter(
            site="llm",
            identity=self.sql,
            kind=self.kind,
            reason=self.reason,
            attempts=self.attempts,
        )


@dataclass
class TranslationConfig:
    """Knobs of the SQL-to-NL phase."""

    n_candidates: int = 8
    fine_tune_on_seeds: bool = True
    fine_tune_epochs: int = 4  # the paper's GPT-3 setting
    #: Retry policy for transient model faults (always on; a fault-free
    #: call pays nothing).
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class TranslationResult:
    """One query's translation outcome, with recovery accounting."""

    sql: str
    candidates: list[str] | None
    attempts: int = 1
    #: fault kind -> times this call recovered from it.
    recovered: dict[str, int] = field(default_factory=dict)
    slept_s: float = 0.0
    dead_letter: DeadLetter | None = None

    @property
    def ok(self) -> bool:
        return self.candidates is not None


class SqlToNlTranslator:
    """Wraps a (possibly flaky) LLM for use inside the pipeline."""

    def __init__(
        self,
        domain: BenchmarkDomain,
        model: SqlToNlModel | None = None,
        config: TranslationConfig | None = None,
        breaker: CircuitBreaker | None = None,
        clock=SYSTEM_CLOCK,
    ) -> None:
        self.domain = domain
        self.model = model or default_generator()
        self.config = config or TranslationConfig()
        self.breaker = breaker
        self.clock = clock
        if self.config.fine_tune_on_seeds:
            self.model.fine_tune(
                domain.seed.pairs,
                domain=domain.name,
                lexicon=domain.lexicon,
                epochs=self.config.fine_tune_epochs,
            )

    def candidates(self, sql: str) -> list[str]:
        """The candidate questions for one SQL query.

        Raises :class:`TranslationFailure` when the query cannot be
        translated within the retry budget.
        """
        result = self.translate_with_recovery(sql)
        if result.candidates is None:
            letter = result.dead_letter
            raise TranslationFailure(sql, letter.kind, letter.attempts, letter.reason)
        return result.candidates

    def translate_with_recovery(self, sql: str) -> TranslationResult:
        """Translate one query; never raises for model faults.

        Transient faults are retried; permanent ones (or an exhausted
        budget) produce a :class:`TranslationResult` carrying a dead letter
        instead of candidates.
        """
        tracer = get_tracer()
        outcome = RetryOutcome()
        with tracer.span("llm.translate") as span:
            try:
                candidates = call_with_retry(
                    lambda: self._attempt(sql),
                    self.config.retry,
                    identity=sql,
                    clock=self.clock,
                    retry_on=TRANSIENT_ERRORS + (CircuitOpenError,),
                    outcome=outcome,
                )
            except (FaultError, CircuitOpenError) as exc:
                kind = getattr(exc, "kind", "circuit-open")
                span.set_attr("attempts", outcome.attempts)
                span.set_attr("dead_letter", kind)
                return TranslationResult(
                    sql=sql,
                    candidates=None,
                    attempts=outcome.attempts,
                    slept_s=outcome.slept_s,
                    dead_letter=DeadLetter(
                        site="llm",
                        identity=sql,
                        kind=kind,
                        reason=str(exc),
                        attempts=outcome.attempts,
                    ),
                )
            span.set_attr("attempts", outcome.attempts)
            # Recovery is accounted post-hoc: the retry helper owns the loop,
            # so recovered fault kinds become events after the fact.
            for kind, times in outcome.recovered.items():
                tracer.add_event(span, "recovered", kind=kind, times=times)
            return TranslationResult(
                sql=sql,
                candidates=candidates,
                attempts=outcome.attempts,
                recovered=dict(outcome.recovered),
                slept_s=outcome.slept_s,
            )

    # -- one attempt ----------------------------------------------------------

    def _attempt(self, sql: str) -> list[str]:
        if self.breaker is not None:
            self.breaker.check()
        try:
            candidates = self.model.translate(
                sql,
                self.domain.enhanced,
                n_candidates=self.config.n_candidates,
                domain=self.domain.name,
            )
            self._validate(candidates)
        except FaultError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return candidates

    def _validate(self, candidates: list[str]) -> None:
        """Client-side completion validation (how truncation is *detected*)."""
        if len(candidates) != self.config.n_candidates:
            raise MalformedCompletionError(
                f"completion truncated: {len(candidates)} of "
                f"{self.config.n_candidates} candidates",
                kind="truncated",
            )
        if any(not candidate.strip() for candidate in candidates):
            raise MalformedCompletionError(
                "completion malformed: empty candidate text", kind="malformed"
            )
