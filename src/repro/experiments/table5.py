"""Table 5 — execution accuracy of the NL-to-SQL systems under every
training regime: the paper's headline experiment.

Grid: {ValueNet, T5-Large w/o Picard, SmBoP} × {Spider-only (zero-shot),
+Seed, +Synth, +Seed+Synth} × {CORDIS, SDSS, OncoMX}, plus the three Spider
control rows (Spider train; Spider train + Synth Spider; Synth Spider only).

Expected shapes (the paper's findings):
* zero-shot accuracy on scientific domains is far below Spider accuracy;
* domain augmentation (seed and/or synth) improves every system on every
  domain, with the full mix usually best;
* SDSS is the hardest domain, OncoMX the most recoverable;
* training on synthetic Spider data alone costs a large fraction of the
  real-data accuracy (the paper's −0.30 to −0.39 deltas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.reporting import render_table
from repro.experiments.tasks import (
    DOMAIN_REGIMES,
    SPIDER_REGIMES,
    SYSTEMS,
    Table5Cell,
    eval_grid,
)
from repro.metrics.triage import format_triage, merge_triage

if TYPE_CHECKING:
    from repro.experiments.runner import BenchmarkSuite

__all__ = [
    "DOMAIN_REGIMES",
    "SPIDER_REGIMES",
    "Table5Cell",
    "Table5Result",
    "evaluate_cell",
    "compute_table5",
    "render_table5",
    "render_table5_from_suite",
]


@dataclass
class Table5Result:
    cells: list[Table5Cell] = field(default_factory=list)

    def cell(self, system: str, domain: str, regime: str) -> Table5Cell:
        for cell in self.cells:
            if (
                cell.system == system
                and cell.domain == domain
                and cell.regime == regime
            ):
                return cell
        raise KeyError((system, domain, regime))

    def accuracy(self, system: str, domain: str, regime: str) -> float:
        return self.cell(system, domain, regime).accuracy


def evaluate_cell(
    suite: BenchmarkSuite, system_name: str, domain_name: str | None, regime: str
) -> Table5Cell:
    """Train one system under one regime and measure execution accuracy.

    Delegates to the ``eval:<system>:<target>:<regime>`` graph task, so the
    cell is cached and its training reused across calls.
    """
    return suite.eval_cell(system_name, domain_name, regime)


def compute_table5(
    suite: BenchmarkSuite,
    systems: tuple[str, ...] = SYSTEMS,
    domains: tuple[str, ...] | None = None,
    include_spider_control: bool = True,
) -> Table5Result:
    """Evaluate the requested grid (default: the suite's own domain set);
    independent cells fan across the runtime's workers because the whole
    batch is requested at once."""
    if domains is None:
        domains = suite.domain_names()
    names = eval_grid(systems, domains, include_spider_control)
    artifacts = suite.ensure(names)
    return Table5Result(cells=[artifacts[name] for name in names])


_REGIME_LABELS = {
    "zero": "Spider Train (Zero-Shot)",
    "seed": "Spider Train + Seed",
    "synth": "Spider Train + Synth",
    "both": "Spider Train + Seed + Synth",
    "plus-synth": "Spider Train + Synth Spider",
    "synth-only": "Synth Spider (only)",
}


def render_table5(result: Table5Result, systems=SYSTEMS) -> str:
    rows = []
    domains = []
    for cell in result.cells:
        if cell.domain not in domains:
            domains.append(cell.domain)
    for domain in domains:
        regimes = SPIDER_REGIMES if domain == "spider" else DOMAIN_REGIMES
        zero = {
            system: result.accuracy(system, domain, regimes[0]) for system in systems
        }
        for regime in regimes:
            row = [f"{_REGIME_LABELS[regime]}", domain.upper()]
            pooled: dict = {}
            for system in systems:
                cell = result.cell(system, domain, regime)
                delta = cell.accuracy - zero[system]
                if regime == regimes[0]:
                    row.append(f"{cell.accuracy:.2f}")
                else:
                    row.append(f"{cell.accuracy:.2f} ({delta:+.2f})")
                merge_triage(pooled, cell.triage)
            row.append(format_triage(pooled))
            rows.append(row)
    return render_table(
        "Table 5 — execution accuracy by system and training regime",
        ["Train set", "Dev set", *(s for s in systems), "Failure triage"],
        rows,
        note=(
            "Numbers in brackets: change vs the zero-shot baseline (paper's "
            "convention). Failure triage pools the static analyzer's "
            "classification of wrong predictions across systems."
        ),
    )


def render_table5_from_suite(suite: BenchmarkSuite) -> str:
    """Registry entry point: the full Table-5 grid for one suite."""
    return render_table5(compute_table5(suite))
