"""Table 4 — silver-standard quality of the synthetic datasets.

The paper samples 100 pairs per domain from the Synth splits (stratified by
hardness) and has experts check whether each NL question matches its SQL
query.  We replay the protocol with the equivalence judge.  The paper's
rates: CORDIS 83%, SDSS 76%, OncoMX 75% — i.e. high-but-imperfect silver
data, which is the property the training experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.reporting import render_table
from repro.experiments.tasks import domain_task, salted_rng, table_task

if TYPE_CHECKING:
    from repro.experiments.runner import BenchmarkSuite


@dataclass
class Table4Row:
    domain: str
    total_synth: int
    sample_size: int
    semantic_equivalence: float


def table4_task(params: dict, inputs: dict) -> list[Table4Row]:
    """Judge a hardness-stratified sample of each domain's Synth split."""
    from repro.metrics.equivalence import EquivalenceJudge

    rows = []
    for name in params["domains"]:
        domain = inputs[domain_task(name)]
        synth = domain.synth
        rng = salted_rng(params["seed"], f"table4:{name}")
        sample = synth.sample_stratified(params["table4_sample"], rng)
        judge = EquivalenceJudge(domain.enhanced, lexicon=domain.lexicon)
        rate = judge.judge_rate([(p.question, p.sql) for p in sample])
        rows.append(
            Table4Row(
                domain=name.upper(),
                total_synth=len(synth),
                sample_size=len(sample),
                semantic_equivalence=rate,
            )
        )
    return rows


def compute_table4(suite: BenchmarkSuite) -> list[Table4Row]:
    """Table 4's rows: the ``table:4`` task's artifact."""
    return suite.artifact(table_task("4"))


def render_table4(suite: BenchmarkSuite) -> str:
    rows = compute_table4(suite)
    return render_table(
        "Table 4 — silver-standard semantic equivalence of Synth splits",
        ["Domain", "Total synth pairs", "Sample", "Semantic equivalence"],
        [
            (r.domain, r.total_synth, r.sample_size, round(r.semantic_equivalence, 3))
            for r in rows
        ],
        note="Paper rates: CORDIS 83%, SDSS 76%, OncoMX 75%.",
    )
