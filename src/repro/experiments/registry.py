"""Renderer registry: table/figure names → entry points + graph tasks.

Replaces the ad-hoc ``__import__`` lambdas the CLI used to dispatch tables.
Each entry names the module/attribute of a ``render(suite) -> str`` function
(imported lazily, so ``tables 2`` never pays for Table 5's imports) and the
graph tasks the renderer consumes — the CLI prefetches those through
``Suite.ensure`` so independent artifacts build in parallel before any
rendering starts.  Task names come from :mod:`repro.experiments.tasks`, the
same naming authority the task graph itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from repro.experiments import tasks
from repro.experiments.config import ExperimentConfig


@dataclass(frozen=True)
class RendererSpec:
    """One renderable artifact of the paper."""

    name: str
    kind: str  # "table" | "figure"
    module: str
    attr: str
    description: str
    #: config -> graph task names to prefetch before rendering
    tasks: Callable[[ExperimentConfig], list[str]]


def _table(number: str) -> Callable[[ExperimentConfig], list[str]]:
    return lambda config: [tasks.table_task(number)]


def _sdss_only(config: ExperimentConfig) -> list[str]:
    return [tasks.domain_task("sdss")]


def _table5_grid(config: ExperimentConfig) -> list[str]:
    return tasks.eval_grid(domains=tasks.active_domains(config))


RENDERERS: dict[str, RendererSpec] = {
    spec.name: spec
    for spec in (
        RendererSpec(
            "1", "table", "repro.experiments.table1", "render_table1",
            "Table 1 — database complexity", _table("1"),
        ),
        RendererSpec(
            "2", "table", "repro.experiments.table2", "render_table2",
            "Table 2 — hardness distribution", _table("2"),
        ),
        RendererSpec(
            "3", "table", "repro.experiments.table3", "render_table3",
            "Table 3 — SQL-to-NL quality", _table("3"),
        ),
        RendererSpec(
            "4", "table", "repro.experiments.table4", "render_table4",
            "Table 4 — silver-standard quality", _table("4"),
        ),
        RendererSpec(
            "5", "table", "repro.experiments.table5", "render_table5_from_suite",
            "Table 5 — NL-to-SQL execution accuracy", _table5_grid,
        ),
        RendererSpec(
            "figure1", "figure", "repro.experiments.figures", "render_figure1_from_suite",
            "Figure 1 — pipeline walk-through", _sdss_only,
        ),
        RendererSpec(
            "figure2", "figure", "repro.experiments.figures", "render_figure2_from_suite",
            "Figure 2 — template extraction", _sdss_only,
        ),
    )
}


def available(kind: str | None = None) -> tuple[str, ...]:
    return tuple(
        name for name, spec in RENDERERS.items() if kind is None or spec.kind == kind
    )


def get_renderer(name: str) -> Callable:
    """The renderer entry point, imported lazily."""
    try:
        spec = RENDERERS[name]
    except KeyError:
        raise KeyError(f"unknown renderer {name!r}") from None
    return getattr(import_module(spec.module), spec.attr)


def required_tasks(name: str, config: ExperimentConfig) -> list[str]:
    """Graph task names the renderer consumes (for parallel prefetching)."""
    return list(RENDERERS[name].tasks(config))


def render(name: str, suite) -> str:
    return get_renderer(name)(suite)


def serving_tasks(
    system: str,
    domains: tuple[str, ...],
    regime: str = "both",
) -> list[str]:
    """Graph task names the serving layer warm-starts from.

    Per served domain: the trained system under ``regime`` and what
    attaching it reads (:func:`tasks.attach_tasks`: the domain artifact
    and the regime's lexicons there).  With a cache-backed runtime these
    all resolve without retraining.
    """
    names = [tasks.train_task(system, name, regime) for name in domains]
    for name in domains:
        names += tasks.attach_tasks(name, regime)
    return names
