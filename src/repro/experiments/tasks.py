"""The concrete benchmark task graph: every suite artifact as a task.

This module is the single naming authority for suite artifacts — the
renderer registry, the CLI and :class:`~repro.experiments.runner.Suite` all
refer to tasks through the helpers here (``domain_task("sdss")``,
``eval_task("smbop", "cordis", "both")``, …).

Task bodies are module-level ``fn(params, inputs)`` functions so the
scheduler can ship them to worker processes by name.  Each body is pure in
its params and dependency artifacts; stochastic bodies receive a derived
per-task seed in ``params["seed"]``.

Graph shape (``build_suite_graph``)::

    corpus ──────────────┬─> synth-spider:<db> (×11) ─> synth-spider
                         ├─> train:<sys>:spider:<regime> ─> eval:…
    domain:<name> (×3) ──┴─> train:<sys>:<domain>:<regime> ─> eval:…
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import adapters
from repro.datasets.records import BenchmarkDomain, Split
from repro.experiments.config import ExperimentConfig
from repro.llm.models import GPT3_PROFILE, make_model
from repro.metrics.execution import ExecutionAccuracy
from repro.nl2sql import SmBoP, T5Seq2Seq, ValueNet
from repro.obs import get_tracer
from repro.resilience.faults import FaultPlan
from repro.resilience.flaky import FlakyModel
from repro.resilience.retry import RetryPolicy
from repro.runtime import Task, TaskGraph, derive_seed
from repro.spider.corpus import SpiderCorpus, build_corpus
from repro.spider.domains import DOMAIN_BUILDERS as SPIDER_DB_BUILDERS
from repro.synthesis import AugmentationPipeline, PipelineConfig, TranslationConfig

SYSTEM_CLASSES = {
    "valuenet": ValueNet,
    "t5-large": T5Seq2Seq,
    "smbop": SmBoP,
}

#: The paper's three domains — the default of ``ExperimentConfig.domains``.
#: Domain *resolution* goes through :mod:`repro.adapters`; this tuple only
#: anchors defaults for configs that don't choose their own set.
DEFAULT_DOMAINS = ("cordis", "sdss", "oncomx")
DOMAIN_REGIMES = ("zero", "seed", "synth", "both")
SPIDER_REGIMES = ("zero", "plus-synth", "synth-only")

_FN = "repro.experiments.tasks:{}".format


def active_domains(config: ExperimentConfig) -> tuple[str, ...]:
    """The domain names one config builds (its ``domains`` field)."""
    names = getattr(config, "domains", None)
    return tuple(names) if names else DEFAULT_DOMAINS


@dataclass
class Table5Cell:
    """One evaluated (system, eval target, training regime) cell."""

    system: str
    domain: str  # "spider" for the control rows
    regime: str
    accuracy: float
    n_eval: int
    #: Static-analyzer failure triage of the wrong predictions
    #: (category → count, see :data:`repro.metrics.triage.TRIAGE_CATEGORIES`).
    triage: dict = field(default_factory=dict)


# -- task names ----------------------------------------------------------------

CORPUS_TASK = "corpus"
SYNTH_SPIDER_TASK = "synth-spider"


def domain_task(name: str) -> str:
    return f"domain:{name}"


def synth_spider_db_task(db_id: str) -> str:
    return f"synth-spider:{db_id}"


def train_task(system: str, target: str, regime: str) -> str:
    """``target`` is a domain name or ``"spider"`` for the control rows."""
    return f"train:{system}:{target}:{regime}"


def eval_task(system: str, target: str, regime: str) -> str:
    return f"eval:{system}:{target}:{regime}"


def eval_grid(
    systems: tuple[str, ...] | None = None,
    domains: tuple[str, ...] | None = None,
    include_spider_control: bool = True,
) -> list[str]:
    """Table-5 eval task names in the table's canonical cell order."""
    systems = tuple(systems) if systems is not None else tuple(SYSTEM_CLASSES)
    domains = tuple(domains) if domains is not None else DEFAULT_DOMAINS
    names = [
        eval_task(system, domain, regime)
        for domain in domains
        for regime in DOMAIN_REGIMES
        for system in systems
    ]
    if include_spider_control:
        names += [
            eval_task(system, "spider", regime)
            for regime in SPIDER_REGIMES
            for system in systems
        ]
    return names


# -- task bodies ---------------------------------------------------------------


def _pipeline_resilience(params: dict, seed: int):
    """(model, PipelineConfig kwargs) honouring optional chaos params.

    ``params["fault"]`` wraps the model in a :class:`FlakyModel` under the
    spec'd fault plan; ``params["retry"]`` overrides the translation retry
    policy.  Both are JSON specs (they feed the content hash) and absent
    entirely in fault-free graphs, keeping those cache keys unchanged.
    """
    model = make_model(GPT3_PROFILE, seed=seed)
    if params.get("fault") is not None:
        model = FlakyModel(model, FaultPlan.from_spec(params["fault"]))
    extra = {}
    if params.get("retry") is not None:
        extra["translation"] = TranslationConfig(
            retry=RetryPolicy.from_spec(params["retry"])
        )
    return model, extra


def build_domain_task(params: dict, inputs: dict) -> BenchmarkDomain:
    """Build one domain and materialize its Synth split (Figure-1 pipeline).

    The adapter's import spec rides in ``params["adapter"]`` so this body
    works in pool workers without any registry state crossing the process
    boundary — and so the content hash distinguishes two adapters that share
    a domain name.
    """
    seed = params["seed"]
    builder = adapters.builder_from_spec(params["adapter"])
    domain = builder(scale=params["scale"])
    model, extra = _pipeline_resilience(params, seed)
    pipeline = AugmentationPipeline(
        domain,
        model=model,
        config=PipelineConfig(
            target_queries=params["target_queries"], seed=seed, **extra
        ),
    )
    pipeline.run(rng=random.Random(seed))
    return domain


def corpus_task(params: dict, inputs: dict) -> SpiderCorpus:
    return build_corpus(
        train_per_db=params["train_per_db"],
        dev_per_db=params["dev_per_db"],
        seed=params["seed"],
    )


def synth_spider_db(params: dict, inputs: dict) -> Split:
    """The pipeline applied to one MiniSpider database, seeded with that
    database's own training pairs (the 'Synth Spider' control of Table 5)."""
    corpus: SpiderCorpus = inputs["corpus"]
    db_id = params["db_id"]
    seed = params["seed"]
    db_train = [p for p in corpus.train.pairs if p.db_id == db_id]
    pseudo_domain = BenchmarkDomain(
        name=db_id,
        database=corpus.databases[db_id],
        enhanced=corpus.enhanced[db_id],
        lexicon=None,
        seed=Split(name=f"{db_id}-seed", pairs=db_train),
        dev=Split(name=f"{db_id}-dev", pairs=[]),
    )
    model, extra = _pipeline_resilience(params, seed)
    pipeline = AugmentationPipeline(
        pseudo_domain,
        model=model,
        config=PipelineConfig(target_queries=params["per_db"], seed=seed, **extra),
    )
    return pipeline.run(rng=random.Random(seed)).split


def merge_synth_spider(params: dict, inputs: dict) -> Split:
    pairs = []
    for db_id in params["order"]:
        pairs.extend(inputs[db_id].pairs)
    return Split(name="spider-synth", pairs=pairs)


def train_system_task(params: dict, inputs: dict):
    """Train one system under one Table-5 regime (see ``Suite.train_regime``)."""
    system = SYSTEM_CLASSES[params["system"]]()
    corpus: SpiderCorpus = inputs["corpus"]
    for db_id, database in corpus.databases.items():
        system.register_database(db_id, database, corpus.enhanced[db_id])
    domain_name = params["domain"]
    regime = params["regime"]
    pairs = list(corpus.train.pairs)
    if domain_name is None:
        if regime == "plus-synth":
            pairs = pairs + list(inputs[SYNTH_SPIDER_TASK].pairs)
        elif regime == "synth-only":
            pairs = list(inputs[SYNTH_SPIDER_TASK].pairs)
    else:
        domain: BenchmarkDomain = inputs["domain"]
        system.register_database(domain_name, domain.database, domain.enhanced)
        if regime in ("seed", "both"):
            pairs += list(domain.seed.pairs)
        if regime in ("synth", "both"):
            pairs += list(domain.synth.pairs)
    system.train(pairs)
    return system


def eval_cell_task(params: dict, inputs: dict) -> Table5Cell:
    """Measure execution accuracy of a trained system on its dev split.

    Predictions go through ``predict_all`` → ``predict_batch`` — the same
    inference path the serving layer uses — so offline evaluation and
    serving cannot drift apart (batched output is byte-identical to
    per-question ``predict``).
    """
    system = inputs["system"]
    domain_name = params["domain"]
    dev_limit = params["dev_limit"]
    accuracy = ExecutionAccuracy()
    tracer = get_tracer()
    if domain_name is None:
        corpus: SpiderCorpus = inputs["corpus"]
        pairs = corpus.dev.pairs[:dev_limit] if dev_limit else list(corpus.dev.pairs)
    else:
        domain: BenchmarkDomain = inputs["domain"]
        pairs = domain.dev.pairs[:dev_limit] if dev_limit else list(domain.dev.pairs)
    with tracer.span("eval.predict", n_pairs=len(pairs)):
        predictions = list(system.predict_all(pairs))
    with tracer.span("eval.score", n_pairs=len(pairs)):
        if domain_name is None:
            for pair, predicted in zip(pairs, predictions):
                accuracy.add(
                    corpus.databases[pair.db_id], pair.sql, predicted,
                    enhanced=None,
                )
        else:
            for pair, predicted in zip(pairs, predictions):
                accuracy.add(
                    domain.database, pair.sql, predicted,
                    enhanced=domain.enhanced,
                )
    return Table5Cell(
        system=params["system"],
        domain=domain_name or "spider",
        regime=params["regime"],
        accuracy=accuracy.accuracy,
        n_eval=accuracy.total,
        triage=accuracy.triage,
    )


# -- graph assembly ------------------------------------------------------------


def build_suite_graph(
    config: ExperimentConfig,
    llm_fault_spec: dict | None = None,
    retry_spec: dict | None = None,
) -> TaskGraph:
    """The full artifact graph for one experiment configuration.

    ``llm_fault_spec``/``retry_spec`` (JSON specs from
    :meth:`FaultPlan.to_spec` / :meth:`RetryPolicy.to_spec`) thread a chaos
    schedule into the LLM-calling task bodies.  They are added to task
    params only when given — params feed the content hash, so fault-free
    graphs keep their existing cache keys, and chaos runs can never collide
    with them.
    """
    graph = TaskGraph()
    base = config.seed
    domains = active_domains(config)
    chaos: dict = {}
    if llm_fault_spec is not None:
        chaos["fault"] = llm_fault_spec
    if retry_spec is not None:
        chaos["retry"] = retry_spec
    graph.add(
        Task(
            CORPUS_TASK,
            _FN("corpus_task"),
            {
                "train_per_db": config.spider_train_per_db,
                "dev_per_db": config.spider_dev_per_db,
                "seed": derive_seed(base, CORPUS_TASK),
            },
        )
    )

    for name in domains:
        tname = domain_task(name)
        graph.add(
            Task(
                tname,
                _FN("build_domain_task"),
                {
                    "domain": name,
                    "adapter": adapters.get_adapter(name).spec(),
                    "scale": config.domain_scale,
                    "target_queries": config.synth_targets.get(name, 300),
                    "seed": derive_seed(base, tname),
                    **chaos,
                },
            )
        )

    spider_dbs = list(SPIDER_DB_BUILDERS)
    for db_id in spider_dbs:
        tname = synth_spider_db_task(db_id)
        graph.add(
            Task(
                tname,
                _FN("synth_spider_db"),
                {
                    "db_id": db_id,
                    "per_db": config.synth_spider_per_db,
                    "seed": derive_seed(base, tname),
                    **chaos,
                },
                deps=(("corpus", CORPUS_TASK),),
            )
        )
    graph.add(
        Task(
            SYNTH_SPIDER_TASK,
            _FN("merge_synth_spider"),
            {"order": spider_dbs},
            deps=tuple((db_id, synth_spider_db_task(db_id)) for db_id in spider_dbs),
        )
    )

    for system in SYSTEM_CLASSES:
        for name in domains:
            for regime in DOMAIN_REGIMES:
                tname = train_task(system, name, regime)
                graph.add(
                    Task(
                        tname,
                        _FN("train_system_task"),
                        {"system": system, "domain": name, "regime": regime},
                        deps=(("corpus", CORPUS_TASK), ("domain", domain_task(name))),
                    )
                )
                graph.add(
                    Task(
                        eval_task(system, name, regime),
                        _FN("eval_cell_task"),
                        {
                            "system": system,
                            "domain": name,
                            "regime": regime,
                            "dev_limit": config.dev_limit,
                        },
                        deps=(("system", tname), ("domain", domain_task(name))),
                    )
                )
        for regime in SPIDER_REGIMES:
            deps: tuple[tuple[str, str], ...] = (("corpus", CORPUS_TASK),)
            if regime != "zero":
                deps += ((SYNTH_SPIDER_TASK, SYNTH_SPIDER_TASK),)
            tname = train_task(system, "spider", regime)
            graph.add(
                Task(
                    tname,
                    _FN("train_system_task"),
                    {"system": system, "domain": None, "regime": regime},
                    deps=deps,
                )
            )
            graph.add(
                Task(
                    eval_task(system, "spider", regime),
                    _FN("eval_cell_task"),
                    {
                        "system": system,
                        "domain": None,
                        "regime": regime,
                        "dev_limit": config.dev_limit,
                    },
                    deps=(("system", tname), ("corpus", CORPUS_TASK)),
                )
            )
    return graph
