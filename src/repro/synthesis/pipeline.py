"""The end-to-end automatic training data generation pipeline (Figure 1).

Chains the four phases — Seeding → SQL Generation → SQL-to-NL Translation →
Discrimination — to turn a domain's small expert seed set into a large
synthetic training split ("Synth" in Table 2).  The pipeline also works for
MiniSpider databases (the "Synth Spider" control rows of Table 5) by wrapping
them as ad-hoc domains.

Resilience: the translation phase retries transient model faults
(:mod:`repro.synthesis.translation`); queries that fail *permanently* are
routed to a dead-letter record with a structured reason instead of aborting
the run, and the run still produces a (smaller) valid split.

The pipeline runs serially and keeps nothing between runs: the runtime's
``domain:`` and ``synth-spider:`` tasks cache its splits, and its process
pool runs several pipelines at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets.records import BenchmarkDomain, NLSQLPair, Split
from repro.llm.base import SqlToNlModel
from repro.obs import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SYSTEM_CLOCK
from repro.resilience.deadletter import DeadLetter, ResilienceStats
from repro.synthesis.discriminator import Discriminator, DiscriminatorConfig
from repro.synthesis.generation import GenerationConfig, GenerationStats, SqlGenerator
from repro.synthesis.seeding import SeedingResult, extract_templates
from repro.synthesis.translation import SqlToNlTranslator, TranslationConfig


@dataclass
class PipelineConfig:
    """All knobs of the end-to-end pipeline in one place."""

    target_queries: int = 1000
    seed: int = 1234
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    discriminator: DiscriminatorConfig = field(default_factory=DiscriminatorConfig)


@dataclass
class PipelineReport:
    """Artifacts and statistics of one pipeline run."""

    seeding: SeedingResult
    n_generated_sql: int
    n_pairs: int
    split: Split
    #: How the generation phase spent its execution-oracle budget, including
    #: candidates the static analyzer rejected without executing.
    generation: GenerationStats | None = None
    #: Queries that failed permanently, with structured reasons.
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: Retry/recovery accounting for the translation phase.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def n_dead_lettered(self) -> int:
        return len(self.dead_letters)


@dataclass
class _QueryOutcome:
    """The phases-3+4 result for one query."""

    pairs: list[NLSQLPair]
    attempts: int
    recovered: dict[str, int]
    slept_s: float
    dead_letter: DeadLetter | None


class AugmentationPipeline:
    """Figure 1: automatic training data generation for one domain.

    ``breaker``/``clock`` guard and pace the translation phase's retries
    (see :mod:`repro.resilience`).
    """

    def __init__(
        self,
        domain: BenchmarkDomain,
        model: SqlToNlModel | None = None,
        config: PipelineConfig | None = None,
        breaker: CircuitBreaker | None = None,
        clock=SYSTEM_CLOCK,
    ) -> None:
        self.domain = domain
        self.config = config or PipelineConfig()
        self.translator = SqlToNlTranslator(
            domain,
            model=model,
            config=self.config.translation,
            breaker=breaker,
            clock=clock,
        )
        self.discriminator = Discriminator(self.config.discriminator)

    def run(self, rng: random.Random | None = None) -> PipelineReport:
        """Execute all four phases and return the synthetic split.

        ``rng`` drives SQL generation; without one, each run uses a fresh
        ``random.Random(config.seed)``.
        """
        if rng is None:
            rng = random.Random(self.config.seed)
        tracer = get_tracer()

        with tracer.span(
            "pipeline.run",
            domain=self.domain.name,
            target=self.config.target_queries,
        ):
            # Phases 1+2 — Seeding, then SQL generation (Algorithm 1),
            # round-robin over templates until the target count is reached or
            # templates dry up.
            with tracer.span("pipeline.seeding") as span:
                seeding = extract_templates(
                    self.domain.seed.pairs, self.domain.database.schema
                )
                span.set_attr("n_templates", len(seeding.templates))
            with tracer.span("pipeline.generation") as span:
                generator = SqlGenerator(
                    self.domain.database,
                    self.domain.enhanced,
                    rng,
                    config=self.config.generation,
                )
                queries = self._generate_queries(generator, seeding)
                span.set_attr("n_queries", len(queries))

            # Phases 3+4 — translate and select, independently per query.
            # Permanent translation failures dead-letter the query; the run
            # continues and still produces a valid (smaller) split.
            with tracer.span("pipeline.translate") as span:
                outcomes = [self._pairs_for(sql) for sql in queries]
                span.set_attr("n_queries", len(outcomes))
                span.set_attr(
                    "dead_letters",
                    sum(1 for o in outcomes if o.dead_letter is not None),
                )

        pairs: list[NLSQLPair] = []
        dead_letters: list[DeadLetter] = []
        resilience = ResilienceStats()
        for outcome in outcomes:
            pairs.extend(outcome.pairs)
            if outcome.dead_letter is not None:
                dead_letters.append(outcome.dead_letter)
            else:
                resilience.observe(outcome.attempts, outcome.recovered, outcome.slept_s)

        split = Split(name=f"{self.domain.name}-synth", pairs=pairs)
        self.domain.synth = split
        return PipelineReport(
            seeding=seeding,
            n_generated_sql=len(queries),
            n_pairs=len(pairs),
            split=split,
            generation=generator.stats,
            dead_letters=dead_letters,
            resilience=resilience,
        )

    def _pairs_for(self, sql: str) -> _QueryOutcome:
        """Phases 3+4 for one generated query: translate, then select."""
        tracer = get_tracer()
        with tracer.span("pipeline.query") as span:
            result = self.translator.translate_with_recovery(sql)
            span.set_attr("attempts", result.attempts)
            if result.candidates is None:
                span.set_attr("outcome", "dead-letter")
                return _QueryOutcome(
                    pairs=[],
                    attempts=result.attempts,
                    recovered=result.recovered,
                    slept_s=result.slept_s,
                    dead_letter=result.dead_letter,
                )
            best = self.discriminator.select(result.candidates)
            span.set_attr("outcome", "ok")
            span.set_attr("n_pairs", len(best))
        return _QueryOutcome(
            pairs=[
                NLSQLPair(
                    question=question,
                    sql=sql,
                    db_id=self.domain.name,
                    source="synth",
                )
                for question in best
            ],
            attempts=result.attempts,
            recovered=result.recovered,
            slept_s=result.slept_s,
            dead_letter=None,
        )

    def _generate_queries(
        self, generator: SqlGenerator, seeding: SeedingResult
    ) -> list[str]:
        """Round-robin template instantiation up to the target count."""
        target = self.config.target_queries
        seen: set[str] = set()
        queries: list[str] = []
        templates = list(seeding.templates)
        if not templates:
            return queries
        exhausted: set[int] = set()
        failures = [0] * len(templates)
        index = 0
        while len(queries) < target and len(exhausted) < len(templates):
            i = index % len(templates)
            index += 1
            if i in exhausted:
                continue
            sql = generator.instantiate(templates[i])
            if sql is None or sql in seen:
                failures[i] += 1
                # Complex templates stop yielding fresh queries quickly; the
                # paper notes exactly this as the reason Synth skews easier.
                if failures[i] >= 8:
                    exhausted.add(i)
                continue
            failures[i] = 0
            seen.add(sql)
            queries.append(sql)
        return queries


def augment_domain(
    domain: BenchmarkDomain,
    target_queries: int = 1000,
    seed: int = 1234,
    model: SqlToNlModel | None = None,
    rng: random.Random | None = None,
) -> Split:
    """Convenience wrapper: run the pipeline and return the Synth split.

    ``rng`` overrides the seed-derived RNG.
    """
    config = PipelineConfig(target_queries=target_queries, seed=seed)
    pipeline = AugmentationPipeline(domain, model=model, config=config)
    return pipeline.run(rng=rng).split
