"""The benchmark suite: a handle over the task-graph runtime.

Tables 1–5 all consume the same underlying artifacts — the three domain
databases, the MiniSpider corpus, the synthetic splits, trained systems.
:class:`Suite` maps each onto a node of the deterministic task graph
(:mod:`repro.experiments.tasks`) and delegates materialization to a
:class:`~repro.runtime.Runtime`, which adds process-level parallelism and a
content-addressed disk cache without changing any output byte.

Public API::

    suite = Suite.from_config(quick(), runtime=Runtime(workers=4,
                                                       cache_dir=".repro-cache"))
    suite.domain("sdss")        # task "domain:sdss"
    suite.corpus                # task "corpus"
    suite.ensure([...])         # fan a batch of tasks across the workers

The suite's domain set is ``config.domains``, resolved through the adapter
registry (:mod:`repro.adapters`) when the graph is assembled — any
registered adapter slots in without code changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.experiments.config import ExperimentConfig, quick
from repro.experiments.tasks import (
    CORPUS_TASK,
    DOMAIN_REGIMES,
    SPIDER_REGIMES,
    SYNTH_SPIDER_TASK,
    SYSTEMS,
    Table5Cell,
    active_domains,
    build_suite_graph,
    domain_task,
    eval_task,
    limited,
    salted_rng,
    train_task,
)
from repro.lazy import lazy_exports
from repro.runtime import Runtime

if TYPE_CHECKING:
    import random

    from repro.datasets.records import BenchmarkDomain, Split
    from repro.spider.corpus import SpiderCorpus

__getattr__ = lazy_exports(__name__, {"repro.nl2sql": ("SYSTEM_CLASSES",)})

__all__ = [
    "BenchmarkSuite",
    "Suite",
    "SYSTEM_CLASSES",
]


class BenchmarkSuite:
    """Lazy, cached access to every experiment input, backed by the graph."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        runtime: Runtime | None = None,
    ) -> None:
        self.config = config or quick()
        self.runtime = runtime or Runtime()
        self.graph = build_suite_graph(self.config)
        self._artifacts: dict[str, Any] = {}

    @classmethod
    def from_config(
        cls, config: ExperimentConfig, runtime: Runtime | None = None
    ) -> "BenchmarkSuite":
        """The public constructor: explicit config, explicit runtime."""
        return cls(config=config, runtime=runtime)

    # -- graph access ---------------------------------------------------------

    def ensure(self, names: list[str] | tuple[str, ...]) -> dict[str, Any]:
        """Materialize a batch of tasks (fanned across the runtime's workers)."""
        missing = [n for n in dict.fromkeys(names) if n not in self._artifacts]
        if missing:
            self._artifacts.update(self.runtime.run(self.graph, missing))
        return {name: self._artifacts[name] for name in names}

    def artifact(self, name: str) -> Any:
        """One task's artifact (computed, cache-loaded or memoized)."""
        if name not in self._artifacts:
            self.ensure([name])
        return self._artifacts[name]

    # -- shared artifacts -----------------------------------------------------

    def domain_names(self) -> tuple[str, ...]:
        """The domain names this suite builds (from ``config.domains``)."""
        return active_domains(self.config)

    def domain(self, name: str) -> BenchmarkDomain:
        """One ScienceBenchmark domain, with its Synth split materialised."""
        if name not in self.domain_names():
            from repro.adapters import list_adapters
            from repro.errors import AdapterError

            raise AdapterError(
                f"unknown domain {name!r}: this suite builds "
                f"{', '.join(self.domain_names())}; registered adapters: "
                f"{', '.join(list_adapters())}"
            )
        return self.artifact(domain_task(name))

    def domains(self) -> dict[str, BenchmarkDomain]:
        self.ensure([domain_task(name) for name in self.domain_names()])
        return {name: self.domain(name) for name in self.domain_names()}

    @property
    def corpus(self) -> SpiderCorpus:
        return self.artifact(CORPUS_TASK)

    @property
    def synth_spider(self) -> Split:
        """Synthetic Spider data (the 'Synth Spider' control of Table 5)."""
        return self.artifact(SYNTH_SPIDER_TASK)

    # -- trained systems --------------------------------------------------------

    def _check_regime(self, domain_name: str | None, regime: str) -> str:
        if domain_name is None:
            if regime not in SPIDER_REGIMES:
                raise ValueError(f"unknown Spider regime {regime!r}")
            return "spider"
        if regime not in DOMAIN_REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
        if domain_name not in self.domain_names():
            from repro.adapters import list_adapters
            from repro.errors import AdapterError

            raise AdapterError(
                f"unknown domain {domain_name!r}: this suite builds "
                f"{', '.join(self.domain_names())}; registered adapters: "
                f"{', '.join(list_adapters())}"
            )
        return domain_name

    def train_regime(self, system_name: str, domain_name: str | None, regime: str):
        """A system trained under one Table-5 regime.

        Regimes: ``zero`` (Spider train only), ``seed``, ``synth``, ``both``
        (Spider + the respective domain splits); for the Spider control rows,
        ``domain_name`` is None and regimes are ``zero`` / ``plus-synth`` /
        ``synth-only``.
        """
        if system_name not in SYSTEMS:
            raise KeyError(system_name)
        target = self._check_regime(domain_name, regime)
        return self.artifact(train_task(system_name, target, regime))

    def eval_cell(
        self, system_name: str, domain_name: str | None, regime: str
    ) -> Table5Cell:
        """One evaluated Table-5 cell (training included, via the graph)."""
        if system_name not in SYSTEMS:
            raise KeyError(system_name)
        target = self._check_regime(domain_name, regime)
        return self.artifact(eval_task(system_name, target, regime))

    def dev_pairs(self, domain_name: str | None):
        """The evaluation split for one domain (or the Spider control)."""
        if domain_name is None:
            pairs = self.corpus.dev.pairs
        else:
            pairs = self.domain(domain_name).dev.pairs
        return limited(pairs, self.config.dev_limit)

    def rng(self, salt: str) -> random.Random:
        return salted_rng(self.config.seed, salt)


#: The name the redesigned API is documented under.
Suite = BenchmarkSuite
