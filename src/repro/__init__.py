"""ScienceBenchmark reproduction — complex NL-to-SQL benchmark construction.

Reproduction of *"ScienceBenchmark: A Complex Real-World Benchmark for
Evaluating Natural Language to SQL Systems"* (VLDB 2023): three scientific
benchmark databases (CORDIS, SDSS, OncoMX), the four-phase automatic
training-data generation pipeline, simulated SQL-to-NL language models,
three trainable NL-to-SQL systems and the full evaluation harness.

Quickstart::

    from repro import build_domain, augment_domain

    domain = build_domain("sdss", scale=0.3)
    synth = augment_domain(domain, target_queries=500)
    print(len(synth), "synthetic NL/SQL pairs")

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datasets.records import BenchmarkDomain

__version__ = "1.0.0"


def build_domain(name: str, scale: float = 1.0, seed: int | None = None) -> BenchmarkDomain:
    """Build one registered benchmark domain (``cordis``, ``sdss``, ``oncomx``
    or any adapter registered through :mod:`repro.adapters`).

    ``scale`` multiplies the synthetic row counts; ``seed`` overrides the
    dataset's default RNG seed.
    """
    from repro import adapters
    from repro.errors import AdapterError

    try:
        adapter = adapters.get_adapter(name)
    except AdapterError:
        raise ValueError(
            f"unknown domain {name!r}; choose from {list(adapters.list_adapters())}"
        ) from None
    return adapter.build(scale=scale, seed=seed)


__getattr__ = lazy_exports(
    __name__,
    {
        "repro.datasets.records": ("BenchmarkDomain", "NLSQLPair", "Split"),
        "repro.engine": ("Database", "create_database"),
        "repro.errors": ("ReproError",),
        "repro.experiments.runner": ("Suite", "BenchmarkSuite"),
        "repro.metrics": ("ExecutionAccuracy", "execution_match"),
        "repro.nl2sql": ("SmBoP", "T5Seq2Seq", "ValueNet"),
        "repro.runtime": ("Runtime",),
        "repro.schema": (
            "Column", "ColumnType", "EnhancedSchema", "ForeignKey", "Schema", "TableDef",
        ),
        "repro.spider": ("build_corpus", "classify_hardness"),
        "repro.sql": ("parse", "to_sql"),
        "repro.synthesis": ("AugmentationPipeline", "PipelineConfig", "augment_domain"),
    },
)

__all__ = [
    "build_domain",
    "augment_domain",
    "Suite",
    "BenchmarkSuite",
    "Runtime",
    "AugmentationPipeline",
    "PipelineConfig",
    "BenchmarkDomain",
    "NLSQLPair",
    "Split",
    "Database",
    "create_database",
    "Schema",
    "TableDef",
    "Column",
    "ColumnType",
    "ForeignKey",
    "EnhancedSchema",
    "ValueNet",
    "T5Seq2Seq",
    "SmBoP",
    "ExecutionAccuracy",
    "execution_match",
    "build_corpus",
    "classify_hardness",
    "parse",
    "to_sql",
    "ReproError",
    "__version__",
]
