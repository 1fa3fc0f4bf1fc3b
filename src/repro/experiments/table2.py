"""Table 2 — hardness distribution of every ScienceBenchmark split.

For each domain, the Seed and Dev splits (expert-written) and the Synth
split (pipeline-generated) are classified with Spider's hardness scheme,
plus MiniSpider train/dev for comparison — exactly the layout of the
paper's Table 2.  The key shapes asserted by the benchmark: Dev skews harder
than Synth (complex templates yield fewer valid instantiations), and OncoMX
is the easiest domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.reporting import percentage, render_table
from repro.experiments.tasks import domain_task, table_task
from repro.spider.hardness import HARDNESS_LEVELS

if TYPE_CHECKING:
    from repro.experiments.runner import BenchmarkSuite


def table2_task(params: dict, inputs: dict) -> list[dict]:
    """One dict per split with counts per hardness level.

    Hardness is classified here rather than in the tasks that build the
    splits: every training task waits on the domain builds.
    """
    rows = []
    for name in params["domains"]:
        domain = inputs[domain_task(name)]
        for split in (domain.seed, domain.dev, domain.synth):
            if split is None:
                continue
            counts = split.hardness_counts()
            rows.append(
                {
                    "dataset": split.name,
                    "total": len(split),
                    **counts,
                }
            )
    corpus = inputs["corpus"]
    for split in (corpus.train, corpus.dev):
        counts = split.hardness_counts()
        rows.append({"dataset": split.name, "total": len(split), **counts})
    return rows


def compute_table2(suite: BenchmarkSuite) -> list[dict]:
    """Table 2's rows: the ``table:2`` task's artifact."""
    return suite.artifact(table_task("2"))


def render_table2(suite: BenchmarkSuite) -> str:
    data = compute_table2(suite)
    rows = [
        (
            entry["dataset"],
            *(percentage(entry[level], entry["total"]) for level in HARDNESS_LEVELS),
            entry["total"],
        )
        for entry in data
    ]
    return render_table(
        "Table 2 — Spider-hardness distribution of ScienceBenchmark splits",
        ["Dataset", "Easy", "Medium", "Hard", "Extra Hard", "Total"],
        rows,
    )


def synth_easier_than_dev(suite: BenchmarkSuite, domain_name: str) -> bool:
    """The paper's observation: Synth skews easier than Dev (hard+extra share)."""
    domain = suite.domain(domain_name)
    def hard_share(split):
        counts = split.hardness_counts()
        total = max(len(split), 1)
        return (counts["hard"] + counts["extra"]) / total
    return hard_share(domain.synth) <= hard_share(domain.dev) + 1e-9
