"""The concrete benchmark task graph: every suite artifact as a task.

This module is the single naming authority for suite artifacts — the
renderer registry, the CLI and :class:`~repro.experiments.runner.Suite` all
refer to tasks through the helpers here (``domain_task("sdss")``,
``eval_task("smbop", "cordis", "both")``, …).

Task bodies are module-level ``fn(params, inputs)`` functions so the
scheduler can ship them to worker processes by name; Tables 1-4 keep theirs
in their own modules (``repro.experiments.table1:table1_task``, …).  Each
body is pure in its params and dependency artifacts; stochastic bodies
receive a derived per-task seed in ``params["seed"]``, or the config seed
where they draw from :func:`salted_rng` as :meth:`Suite.rng` does.

A body imports what it runs inside its own scope, so building the graph, or
rendering tables from cached artifacts, loads neither numpy nor the
systems, the simulated LLMs, the pipeline or the analyzer.

Graph shape (``build_suite_graph``)::

    corpus ──────────────┬─> synth-spider:<db> (×11) ─> synth-spider ─┐
                         ├─> split:spider:train    split:spider:synth <┘
                         ├─> table:1, table:2, table:3
    domain:<name> (×3) ──┼─> split:<name>:seed, split:<name>:synth
                         └─> table:1, table:2, table:3, table:4

    split:<owner>:<part> ─┬─> lexicon:<owner>:<part>
                          └─> train:<sys>:<target>:<regime>
    train:… + corpus or domain:<target> + lexicon:<target>:… ─> eval:…

A ``split:`` task lifts one training split's pairs to SemQL, once for every
system and regime that trains on it; its ``lexicon:`` task folds that
split's per-database lexicons.  A ``train:`` task folds its regime's
splits, in training order, into what only that system learns, so its
artifact holds no database, lexicon or embedding; its keys depend only on
the split list, so ``train:<sys>:<domain>:zero`` and
``train:<sys>:spider:zero`` share one (the runtime computes a key once per
run).  Whoever predicts with a trained system attaches its target's
databases and lexicons to a copy of it (:func:`attach_target`).  A
``table:N`` artifact is Table N's rows, so a warm render only formats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import adapters
from repro.datasets.records import BenchmarkDomain, Split
from repro.experiments.config import ExperimentConfig
from repro.lazy import lazy_exports
from repro.obs import get_tracer
from repro.runtime import Task, TaskGraph, derive_seed
from repro.spider.corpus import SpiderCorpus, build_corpus
from repro.spider.domains import DOMAIN_BUILDERS as SPIDER_DB_BUILDERS

#: The Table-5 systems by name, in the table's column order.
#: ``SYSTEM_CLASSES`` (name -> class) loads ``repro.nl2sql`` on first use.
SYSTEMS = ("valuenet", "t5-large", "smbop")

__getattr__ = lazy_exports(__name__, {"repro.nl2sql": ("SYSTEM_CLASSES",)})

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


def split_task(owner: str, part: str) -> str:
    """A prepared training split: Spider's ``train`` or ``synth`` (``owner``
    ``"spider"``), or a domain's ``seed`` or ``synth``."""
    return f"split:{owner}:{part}"


def lexicon_task(owner: str, part: str) -> str:
    """The per-database lexicons of one training split."""
    return f"lexicon:{owner}:{part}"


def train_task(system: str, target: str, regime: str) -> str:
    """``target`` is a domain name or ``"spider"`` for the control rows."""
    return f"train:{system}:{target}:{regime}"


def eval_task(system: str, target: str, regime: str) -> str:
    return f"eval:{system}:{target}:{regime}"


def table_task(number: str) -> str:
    """Tables 1-4 (``"1"`` … ``"4"``); Table 5 is its ``eval:`` cells."""
    return f"table:{number}"


def salted_rng(seed: int, salt: str) -> random.Random:
    """The named random stream ``salt`` of config seed ``seed``
    (:meth:`Suite.rng`, and the table tasks that draw as it does)."""
    return random.Random(f"{seed}:{salt}")


def limited(pairs, limit: int | None) -> list:
    """The first ``limit`` pairs; all of them when ``limit`` is None or 0."""
    return pairs[:limit] if limit else list(pairs)


def regime_splits(target: str, regime: str) -> list[tuple[str, str]]:
    """The ``(owner, part)`` training splits of one Table-5 regime, in
    training order (see :func:`split_task`)."""
    if target == "spider":
        parts = {"zero": ("train",), "plus-synth": ("train", "synth"), "synth-only": ("synth",)}
        return [("spider", part) for part in parts[regime]]
    parts = {"zero": (), "seed": ("seed",), "synth": ("synth",), "both": ("seed", "synth")}
    return [("spider", "train")] + [(target, part) for part in parts[regime]]


def source_task(target: str) -> str:
    """The task holding ``target``'s databases and dev split: its domain,
    or the corpus for ``"spider"``."""
    return CORPUS_TASK if target == "spider" else domain_task(target)


def attach_tasks(target: str, regime: str) -> list[str]:
    """The tasks :func:`attach_target` reads: :func:`source_task`, then the
    lexicons of the regime's splits on the target, in training order."""
    return [source_task(target)] + [
        lexicon_task(owner, part)
        for owner, part in regime_splits(target, regime)
        if owner == target
    ]


def attach_target(system, target: str, regime: str, artifact):
    """A copy of a trained system (``system.detached()``) with the
    databases ``target`` evaluates on attached, each with the lexicon
    ``regime`` learned there; ``system`` itself is not changed.

    ``artifact(name)`` returns the artifact of each of
    :func:`attach_tasks`.  A domain target attaches its domain, ``"spider"``
    the MiniSpider databases; a database no split of the regime covers gets
    an empty lexicon, as ``register_database`` gives it.
    """
    from repro.nl2sql.lexicon import merged

    source_name, *lexicon_names = attach_tasks(target, regime)
    source = artifact(source_name)
    parts = [artifact(name) for name in lexicon_names]
    if target == "spider":
        databases = [
            (db_id, database, source.enhanced[db_id])
            for db_id, database in source.databases.items()
        ]
    else:
        databases = [(target, source.database, source.enhanced)]
    system = system.detached()
    for db_id, database, enhanced in databases:
        lexicon = merged(db_id, [part[db_id] for part in parts if db_id in part])
        system.attach(db_id, database, enhanced, lexicon)
    return system


def eval_grid(
    systems: tuple[str, ...] | None = None,
    domains: tuple[str, ...] | None = None,
    include_spider_control: bool = True,
) -> list[str]:
    """Table-5 eval task names in the table's canonical cell order."""
    systems = tuple(systems) if systems is not None else SYSTEMS
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
    from repro.llm.models import GPT3_PROFILE, make_model
    from repro.resilience.faults import FaultPlan
    from repro.resilience.flaky import FlakyModel
    from repro.resilience.retry import RetryPolicy
    from repro.synthesis import TranslationConfig

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
    from repro.synthesis import AugmentationPipeline, PipelineConfig

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
    from repro.synthesis import AugmentationPipeline, PipelineConfig

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


def prepare_split_task(params: dict, inputs: dict):
    """Lift one training split's pairs to SemQL (a ``PreparedSplit``)."""
    from repro.nl2sql.base import PreparedSplit, lift

    owner, part = params["owner"], params["part"]
    if owner == "spider":
        corpus: SpiderCorpus = inputs["corpus"]
        pairs = corpus.train.pairs if part == "train" else inputs[SYNTH_SPIDER_TASK].pairs
        schemas = {db_id: database.schema for db_id, database in corpus.databases.items()}
    else:
        domain: BenchmarkDomain = inputs["domain"]
        pairs = domain.seed.pairs if part == "seed" else domain.synth.pairs
        schemas = {owner: domain.database.schema}
    pairs = list(pairs)
    return PreparedSplit(pairs=pairs, trees=lift(pairs, schemas))


def split_lexicons_task(params: dict, inputs: dict) -> dict:
    """One prepared split's lexicons, ``{db_id: LearnedLexicon}``, folded
    in pair order."""
    from repro.nl2sql.lexicon import fold

    split = inputs["split"]
    return fold({}, split.pairs, split.trees)


def train_system_task(params: dict, inputs: dict):
    """Train one system on its regime's prepared splits, in order (see
    ``Suite.train_regime``)."""
    from repro.nl2sql import SYSTEM_CLASSES

    system = SYSTEM_CLASSES[params["system"]]()
    pairs: list = []
    trees: list = []
    for name in params["splits"]:
        pairs += inputs[name].pairs
        trees += inputs[name].trees
    system.train(pairs, trees)
    return system


def eval_cell_task(params: dict, inputs: dict) -> Table5Cell:
    """Measure execution accuracy of a trained system on its dev split.

    Predictions go through ``predict_all`` → ``predict_batch`` — the same
    inference path the serving layer uses — so offline evaluation and
    serving cannot drift apart (batched output is byte-identical to
    per-question ``predict``).
    """
    from repro.metrics.execution import ExecutionAccuracy

    target = params["domain"] or "spider"
    system = attach_target(inputs["system"], target, params["regime"], inputs.__getitem__)
    source = inputs[source_task(target)]
    accuracy = ExecutionAccuracy()
    tracer = get_tracer()
    pairs = limited(source.dev.pairs, params["dev_limit"])
    with tracer.span("eval.predict", n_pairs=len(pairs)):
        predictions = list(system.predict_all(pairs))
    with tracer.span("eval.score", n_pairs=len(pairs)):
        if target == "spider":
            for pair, predicted in zip(pairs, predictions):
                accuracy.add(
                    source.databases[pair.db_id], pair.sql, predicted,
                    enhanced=None,
                )
        else:
            for pair, predicted in zip(pairs, predictions):
                accuracy.add(
                    source.database, pair.sql, predicted,
                    enhanced=source.enhanced,
                )
    return Table5Cell(
        system=params["system"],
        domain=target,
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

    splits = [("spider", "train"), ("spider", "synth")]
    splits += [(name, part) for name in domains for part in ("seed", "synth")]
    for owner, part in splits:
        if owner != "spider":
            deps: tuple[tuple[str, str], ...] = (("domain", domain_task(owner)),)
        elif part == "train":
            deps = (("corpus", CORPUS_TASK),)
        else:
            deps = (("corpus", CORPUS_TASK), (SYNTH_SPIDER_TASK, SYNTH_SPIDER_TASK))
        graph.add(
            Task(
                split_task(owner, part),
                _FN("prepare_split_task"),
                {"owner": owner, "part": part},
                deps=deps,
            )
        )
        graph.add(
            Task(
                lexicon_task(owner, part),
                _FN("split_lexicons_task"),
                {},
                deps=(("split", split_task(owner, part)),),
            )
        )

    cells = [(name, regime) for name in domains for regime in DOMAIN_REGIMES]
    cells += [("spider", regime) for regime in SPIDER_REGIMES]
    for system in SYSTEMS:
        for target, regime in cells:
            names = [split_task(*split) for split in regime_splits(target, regime)]
            tname = train_task(system, target, regime)
            graph.add(
                Task(
                    tname,
                    _FN("train_system_task"),
                    {"system": system, "splits": names},
                    deps=tuple((name, name) for name in names),
                )
            )
            graph.add(
                Task(
                    eval_task(system, target, regime),
                    _FN("eval_cell_task"),
                    {
                        "system": system,
                        "domain": None if target == "spider" else target,
                        "regime": regime,
                        "dev_limit": config.dev_limit,
                    },
                    deps=(("system", tname),)
                    + tuple((name, name) for name in attach_tasks(target, regime)),
                )
            )

    # Tables 1-4 carry the config fields they read.  Those include the
    # ordered domain names: the content hash sorts dep roles, and a table
    # lists its domains in config order.
    names = list(domains)
    domain_deps = tuple((domain_task(name), domain_task(name)) for name in names)
    corpus_deps = (("corpus", CORPUS_TASK),) + domain_deps
    table3 = {"seed": base, "table3_sample": config.table3_sample, "dev_limit": config.dev_limit}
    table4 = {"seed": base, "table4_sample": config.table4_sample}
    for number, params, deps in (
        ("1", {}, corpus_deps),
        ("2", {}, corpus_deps),
        ("3", table3, corpus_deps),
        ("4", table4, domain_deps),
    ):
        graph.add(
            Task(
                table_task(number),
                f"repro.experiments.table{number}:table{number}_task",
                {"domains": names, **params},
                deps=deps,
            )
        )
    return graph
