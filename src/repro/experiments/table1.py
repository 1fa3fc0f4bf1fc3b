"""Table 1 — database complexity: ScienceBenchmark domains vs Spider.

Reports, per database: table count, column count, rows, average rows per
table and estimated size.  Two scales are shown for the scientific domains:
the *nominal* numbers the paper reports for the live databases (carried as
metadata by each dataset module) and the *instantiated* numbers of our
synthetic instance, so the structural claims (tables/columns — which match
the paper exactly) are separated from the scale substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.reporting import render_table
from repro.experiments.tasks import domain_task, table_task

if TYPE_CHECKING:
    from repro.experiments.runner import BenchmarkSuite


@dataclass
class Table1Row:
    dataset: str
    tables: int
    columns: int
    rows: int
    avg_rows_per_table: float
    size_mb: float


def table1_task(params: dict, inputs: dict) -> dict:
    """All Table-1 rows: MiniSpider aggregate + per-domain nominal/measured."""
    corpus = inputs["corpus"]

    spider_tables = sum(len(db.schema.tables) for db in corpus.databases.values())
    spider_columns = sum(db.schema.total_columns() for db in corpus.databases.values())
    spider_rows = sum(db.row_count() for db in corpus.databases.values())
    spider_bytes = sum(db.estimated_bytes() for db in corpus.databases.values())
    n_dbs = len(corpus.databases)

    spider_row = Table1Row(
        dataset=f"MiniSpider ({n_dbs} DBs)",
        tables=spider_tables,
        columns=spider_columns,
        rows=spider_rows,
        avg_rows_per_table=spider_rows / max(spider_tables, 1),
        size_mb=spider_bytes / 1e6,
    )
    spider_avg = Table1Row(
        dataset="(Avg / DB)",
        tables=round(spider_tables / n_dbs),
        columns=round(spider_columns / n_dbs),
        rows=round(spider_rows / n_dbs),
        avg_rows_per_table=spider_rows / max(spider_tables, 1),
        size_mb=spider_bytes / 1e6 / n_dbs,
    )

    nominal_rows = []
    measured_rows = []
    for name in params["domains"]:
        domain = inputs[domain_task(name)]
        db = domain.database
        stats = domain.nominal_stats or {}
        nominal_rows.append(
            Table1Row(
                dataset=f"{name.upper()} (paper nominal)",
                tables=stats.get("tables", len(db.schema.tables)),
                columns=stats.get("columns", db.schema.total_columns()),
                rows=stats.get("rows", db.row_count()),
                avg_rows_per_table=stats.get(
                    "avg_rows_per_table", db.average_rows_per_table()
                ),
                size_mb=stats.get("size_gb", 0.0) * 1000,
            )
        )
        measured_rows.append(
            Table1Row(
                dataset=f"{name.upper()} (this instance)",
                tables=len(db.schema.tables),
                columns=db.schema.total_columns(),
                rows=db.row_count(),
                avg_rows_per_table=db.average_rows_per_table(),
                size_mb=db.estimated_bytes() / 1e6,
            )
        )

    return {
        "spider": spider_row,
        "spider_avg": spider_avg,
        "nominal": nominal_rows,
        "measured": measured_rows,
    }


def compute_table1(suite: BenchmarkSuite) -> dict:
    """Table 1's rows: the ``table:1`` task's artifact."""
    return suite.artifact(table_task("1"))


def render_table1(suite: BenchmarkSuite) -> str:
    data = compute_table1(suite)
    rows = [data["spider"], data["spider_avg"]] + [
        row for pair in zip(data["nominal"], data["measured"]) for row in pair
    ]
    return render_table(
        "Table 1 — Complexity of Spider vs ScienceBenchmark databases",
        ["Dataset", "Tables", "Columns", "Rows", "Avg rows/table", "Size (MB)"],
        [
            (
                r.dataset,
                r.tables,
                r.columns,
                r.rows,
                round(r.avg_rows_per_table, 1),
                round(r.size_mb, 2),
            )
            for r in rows
        ],
        note=(
            "Nominal rows repeat the paper's live-database statistics; "
            "'this instance' rows describe the synthetic build (structure —\n"
            "tables and columns — matches the paper exactly; row counts are "
            "scaled for laptop-size experiments)."
        ),
    )
