"""Experiment configuration: one object controls every knob of a run.

Two presets ship: ``quick()`` (used by the test-suite and the default
benchmark run — minutes, not hours) and ``full()`` (larger data and synth
targets, closer to the paper's set sizes).  All experiments are fully
deterministic given a config.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a benchmark build + evaluation run."""

    name: str = "quick"
    seed: int = 2023

    # Domain databases.  ``domains`` names the adapters the suite builds —
    # resolved against the adapter registry (:mod:`repro.adapters`) when the
    # task graph is assembled, so any registered adapter (including one
    # loaded from a single file) slots in without code changes.
    domains: tuple[str, ...] = ("cordis", "sdss", "oncomx")
    domain_scale: float = 0.3

    # MiniSpider corpus
    spider_train_per_db: int = 60
    spider_dev_per_db: int = 10

    # Augmentation pipeline
    synth_targets: dict = field(
        default_factory=lambda: {"cordis": 300, "sdss": 420, "oncomx": 260}
    )
    synth_spider_per_db: int = 25

    # Evaluation sizes
    table3_sample: int = 60
    table4_sample: int = 100
    dev_limit: int | None = None  # cap dev pairs per domain (None = all)


def quick() -> ExperimentConfig:
    """Fast preset for tests and default benchmark runs."""
    return ExperimentConfig()


def full() -> ExperimentConfig:
    """Larger preset approaching the paper's set sizes.

    Synth targets follow Table 2's proportions (CORDIS 1306 / SDSS 2061 /
    OncoMX 1065 generated queries).
    """
    return ExperimentConfig(
        name="full",
        domain_scale=1.0,
        spider_train_per_db=120,
        spider_dev_per_db=25,
        synth_targets={"cordis": 1306, "sdss": 2061, "oncomx": 1065},
        synth_spider_per_db=60,
        table3_sample=175,
        table4_sample=100,
    )
