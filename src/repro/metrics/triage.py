"""Failure triage for NL-to-SQL predictions.

When a predicted query does not match the gold result, the static analyzer
can usually say *why* without manual inspection: the prediction referenced a
hallucinated column, compared incompatible types, missed a join edge, and so
on.  :func:`triage_prediction` maps each failed prediction to exactly one
category (the first that applies, most specific first), giving the Table-5
experiment an automatic error breakdown per system.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.database import Database
    from repro.schema.enhanced import EnhancedSchema

#: Triage buckets in priority order — a failure lands in the first that fits.
TRIAGE_CATEGORIES = (
    "missing",  # the system produced no query at all
    "syntax",  # the prediction does not parse
    "schema",  # name resolution failed (hallucinated table/column/alias)
    "type",  # operand types cannot work (type.* errors)
    "aggregate",  # illegal aggregate placement (agg.* errors)
    "runtime",  # parses and lints clean of errors, but execution fails
    "join",  # executes, wrong rows, and the analyzer flags join structure
    "empty",  # executes but returns no rows while gold has some
    "wrong-rows",  # executes, rows present, result simply differs
)

_RULE_PREFIX_TO_CATEGORY = (
    ("syntax.", "syntax"),
    ("name.", "schema"),
    ("type.", "type"),
    ("agg.", "aggregate"),
)


def triage_prediction(
    database: Database,
    gold_sql: str,
    predicted_sql: str | None,
    enhanced: EnhancedSchema | None = None,
) -> str:
    """Classify one *failed* prediction into a :data:`TRIAGE_CATEGORIES` bucket."""
    if predicted_sql is None or not predicted_sql.strip():
        return "missing"
    from repro.analysis import Severity, analyze

    diagnostics = analyze(predicted_sql, database.schema, enhanced)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    for prefix, category in _RULE_PREFIX_TO_CATEGORY:
        if any(d.rule.startswith(prefix) for d in errors):
            return category

    result = database.try_execute(predicted_sql)
    if result is None:
        return "runtime"
    if any(d.rule.startswith("join.") for d in diagnostics):
        return "join"
    if not result.rows:
        gold_result = database.try_execute(gold_sql)
        if gold_result is not None and gold_result.rows:
            return "empty"
    return "wrong-rows"


def merge_triage(into: dict[str, int], counts: dict[str, int]) -> dict[str, int]:
    """Accumulate triage counts (used when pooling domains)."""
    for category, n in counts.items():
        into[category] = into.get(category, 0) + n
    return into


def format_triage(counts: dict[str, int]) -> str:
    """Compact ``category:count`` rendering in priority order, e.g.
    ``schema:3 empty:1`` — the Table-5 failure-triage column."""
    parts = [
        f"{category}:{counts[category]}"
        for category in TRIAGE_CATEGORIES
        if counts.get(category)
    ]
    return " ".join(parts) if parts else "-"
