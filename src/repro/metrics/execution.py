"""Execution accuracy — the paper's evaluation metric for NL-to-SQL systems.

A predicted query is counted correct when its result set matches the gold
query's result set on the benchmark database.  Matching is order-insensitive
(multiset equality over canonicalised rows) unless the *gold* query carries
an ORDER BY, in which case row order must match too — the convention of
Spider's execution evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.executor import Result, _canonical
from repro.errors import ReproError
from repro.sql import ast, parse


def results_match(gold: Result, predicted: Result, ordered: bool) -> bool:
    """Compare two results (column labels are ignored, as in Spider)."""
    if len(gold.rows) != len(predicted.rows):
        return False
    if gold.rows and len(gold.rows[0]) != len(predicted.rows[0]):
        return False
    if ordered:
        for g_row, p_row in zip(gold.rows, predicted.rows):
            if tuple(map(_canonical, g_row)) != tuple(map(_canonical, p_row)):
                return False
        return True
    return gold.to_multiset() == predicted.to_multiset()


def execution_match(
    database: Database, gold_sql: str, predicted_sql: str | None
) -> bool:
    """True iff ``predicted_sql`` executes and matches ``gold_sql``'s result.

    Gold is parsed once: that tree is executed and read for ORDER BY.
    """
    if predicted_sql is None:
        return False
    try:
        gold = parse(gold_sql)
        gold_result = database.execute(gold)
    except (ReproError, RecursionError):
        raise ValueError(f"gold query failed to execute: {gold_sql!r}") from None
    predicted_result = database.try_execute(predicted_sql)
    if predicted_result is None:
        return False
    return results_match(gold_result, predicted_result, _query_is_ordered(gold))


@dataclass
class ExecutionAccuracy:
    """Accumulator producing the accuracy numbers of Table 5.

    Besides the headline accuracy, each failed prediction is triaged by the
    static analyzer (:mod:`repro.metrics.triage`) into a failure category;
    the per-category counts land in ``triage``.
    """

    total: int = 0
    correct: int = 0
    failures: list[tuple[str, str | None]] = field(default_factory=list)
    triage: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        database: Database,
        gold_sql: str,
        predicted_sql: str | None,
        enhanced=None,
    ) -> bool:
        matched = execution_match(database, gold_sql, predicted_sql)
        self.total += 1
        if matched:
            self.correct += 1
        else:
            self.failures.append((gold_sql, predicted_sql))
            # Imported here: triage pulls in repro.analysis, which this
            # low-level module must not require at import time.
            from repro.metrics.triage import triage_prediction

            category = triage_prediction(database, gold_sql, predicted_sql, enhanced)
            self.triage[category] = self.triage.get(category, 0) + 1
        return matched

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return self.correct / self.total


def _is_ordered(sql: str) -> bool:
    try:
        query = parse(sql)
    except ReproError:
        # Only the parser's own failure modes are downgraded to "unordered";
        # anything else (including KeyboardInterrupt) propagates.
        return False
    return _query_is_ordered(query)


def _query_is_ordered(query: ast.Query) -> bool:
    if query.set_op is not None:
        return False  # set ops discard order
    return bool(query.select.order_by)
