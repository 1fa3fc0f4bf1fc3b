"""Differential execution: the in-repo engine vs an independent backend.

``sciencebenchmark diff-exec`` runs a domain's query sets (gold Seed/Dev,
and optionally the pipeline's silver Synth split) through the native engine
and a second :class:`~repro.engine.backends.ExecutionBackend` (sqlite), and
reports every disagreement as a structured :class:`Divergence` diagnostic.
Agreement uses the same comparison as execution accuracy
(:func:`repro.metrics.execution.results_match`): multiset equality over
canonicalised rows, order-sensitive only when the query carries an ORDER BY.

This is correctness fuzzing for the engine — thousands of generated silver
queries probing NULL handling, aggregates and set semantics against SQLite,
the reference engine of Spider's execution evaluation — and the template for
running future domains against a real database.
Two comparison refinements beyond :func:`results_match` are cross-engine
necessities (same-engine accuracy scoring never needs them):

* **Tie-aware ORDER BY.**  Two engines may legitimately permute rows whose
  ORDER BY keys tie.  When every ORDER BY key maps onto a projected column,
  agreement requires only that the key-value *sequences* match and the rows
  form the same multiset; otherwise the comparison stays strictly ordered.
* **Float tolerance.**  Both engines compute correct sums in a different
  order, so aggregates can differ by one ULP — which the canonicaliser's
  ``round(x, 6)`` can amplify into different 6-decimal values exactly at a
  rounding half-boundary.  Near-equal floats (``rel_tol=1e-6``) therefore
  compare equal here.

Neither refinement applies to the in-repo ``vector`` backend: its contract
is *byte-identity* with the row engine (same columns, same rows, same
order, same value objects), so ``run_diff_exec`` compares it strictly —
no tie tolerance, no float slack.  :func:`run_three_way` runs both
comparisons (engine vs vector strict, engine vs sqlite tolerant) over one
domain, the full cross-engine correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.datasets.records import BenchmarkDomain
from repro.engine.backends import ExecutionBackend, get_backend
from repro.engine.backends.native import NativeBackend
from repro.engine.executor import Result, _canonical
from repro.errors import ExecutionError, ReproError
from repro.metrics.execution import _is_ordered, results_match
from repro.obs import get_tracer
from repro.obs.export import write_report
from repro.obs.metrics import MetricsRegistry
from repro.sql import parse
from repro.sql.printer import to_sql

#: Divergence sample size: differing canonical rows included per diagnostic.
MAX_SAMPLE_ROWS = 3

#: Split names accepted by :func:`run_diff_exec`.
GOLD_SPLITS = ("seed", "dev")
ALL_SPLITS = ("seed", "dev", "synth")

#: Backends of the three-way run (each compared against the native engine).
THREE_WAY_BACKENDS = ("vector", "sqlite")


@dataclass(frozen=True)
class Divergence:
    """One query on which the two backends disagreed."""

    domain: str
    split: str
    question: str
    sql: str
    #: "result-mismatch" | "engine-error" | "backend-error"
    kind: str
    detail: str
    engine_rows: int | None = None
    backend_rows: int | None = None
    #: Canonical rows present in one result but not the other (bounded).
    sample: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DiffReport:
    """Structured outcome of one domain × backend differential run."""

    domain: str
    backend: str
    splits: tuple[str, ...]
    n_queries: int = 0
    n_agreements: int = 0
    #: Queries both engines rejected (consistent behaviour, not divergence).
    n_both_errors: int = 0
    per_split: dict = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def n_divergences(self) -> int:
        return len(self.divergences)

    @property
    def agreed(self) -> bool:
        return self.n_divergences == 0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "benchmark": "diff-exec",
            "domain": self.domain,
            "backend": self.backend,
            "splits": list(self.splits),
            "n_queries": self.n_queries,
            "n_agreements": self.n_agreements,
            "n_divergences": self.n_divergences,
            "n_both_errors": self.n_both_errors,
            "per_split": self.per_split,
            "divergences": [d.to_dict() for d in self.divergences],
            "metrics": self.metrics,
        }

    def render(self) -> str:
        lines = [
            f"diff-exec[{self.domain}] engine vs {self.backend}: "
            f"{self.n_agreements}/{self.n_queries} queries agree, "
            f"{self.n_divergences} divergences"
        ]
        for split, counts in sorted(self.per_split.items()):
            lines.append(
                f"  {split:6s} {counts['agreements']:4d}/{counts['queries']:<4d} agree"
                + (f", {counts['divergences']} diverge" if counts["divergences"] else "")
            )
        for divergence in self.divergences[:10]:
            lines.append(
                f"  DIVERGE [{divergence.split}] {divergence.kind}: "
                f"{divergence.sql}  ({divergence.detail})"
            )
        if self.n_divergences > 10:
            lines.append(f"  ... and {self.n_divergences - 10} more")
        return "\n".join(lines)


def _value_close(a, b) -> bool:
    """Canonical equality, with one-ULP slack for cross-engine floats."""
    if _canonical(a) == _canonical(b):
        return True
    if (
        isinstance(a, (int, float)) and not isinstance(a, bool)
        and isinstance(b, (int, float)) and not isinstance(b, bool)
    ):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    return False


def _canonical_sort_key(row: tuple) -> str:
    return repr(tuple(_canonical(value) for value in row))


def _rows_close(rows_a: list[tuple], rows_b: list[tuple]) -> bool:
    """Pairwise :func:`_value_close` over two equal-length row lists."""
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return False
        for value_a, value_b in zip(row_a, row_b):
            if not _value_close(value_a, value_b):
                return False
    return True


def _multiset_close(engine_result: Result, backend_result: Result) -> bool:
    """Order-insensitive row-set equality with float tolerance."""
    if engine_result.to_multiset() == backend_result.to_multiset():
        return True
    return _rows_close(
        sorted(engine_result.rows, key=_canonical_sort_key),
        sorted(backend_result.rows, key=_canonical_sort_key),
    )


def _order_key_indices(sql: str) -> tuple[list[int] | None, bool]:
    """``(indices, keys_hidden)`` for the query's ORDER BY keys.

    ``indices`` holds the projection index of every key when all keys are
    themselves projected expressions; otherwise None.  ``keys_hidden`` is
    True when the query *is* ordered but at least one key is absent from
    the projection — then tie order is unverifiable from the result rows
    (e.g. ``SELECT name ... ORDER BY COUNT(*)``) and only row content can
    be compared across engines."""
    try:
        query = parse(sql)
    except ReproError:
        return None, False
    if query.set_op is not None or not query.select.order_by:
        return None, False
    projected = []
    for item in query.select.items:
        expr = getattr(item, "expr", None)
        projected.append(to_sql(expr).lower() if expr is not None else "")
    indices = []
    for order_item in query.select.order_by:
        key_sql = to_sql(order_item.expr).lower()
        if key_sql not in projected:
            return None, True
        indices.append(projected.index(key_sql))
    return indices, False


def _ordered_agree(sql: str, engine_result: Result, backend_result: Result) -> bool:
    """Ordered agreement that tolerates tie permutations between engines.

    Requires the same row multiset *and* identical ORDER BY key sequences —
    rows with equal sort keys may appear in either order.  When the keys
    aren't projected at all, order is unverifiable: both engines sort
    correctly by construction, so content (multiset) equality is the
    strongest cross-engine check available.
    """
    indices, keys_hidden = _order_key_indices(sql)
    if indices is None:
        if keys_hidden:
            return _multiset_close(engine_result, backend_result)
        return False
    if not _multiset_close(engine_result, backend_result):
        return False
    keys_engine = [tuple(row[i] for i in indices) for row in engine_result.rows]
    keys_backend = [tuple(row[i] for i in indices) for row in backend_result.rows]
    return _rows_close(keys_engine, keys_backend)


def _results_agree(sql: str, engine_result: Result, backend_result: Result) -> bool:
    ordered = _is_ordered(sql)
    if results_match(engine_result, backend_result, ordered):
        return True
    if len(engine_result.rows) != len(backend_result.rows):
        return False
    if engine_result.rows and len(engine_result.rows[0]) != len(
        backend_result.rows[0]
    ):
        return False
    if ordered:
        return _ordered_agree(sql, engine_result, backend_result)
    return _multiset_close(engine_result, backend_result)


def _row_sample(engine_result: Result, backend_result: Result) -> tuple:
    """Up to :data:`MAX_SAMPLE_ROWS` canonical rows unique to either side."""
    engine_multiset = engine_result.to_multiset()
    backend_multiset = backend_result.to_multiset()
    sample = []
    for label, mine, theirs in (
        ("engine-only", engine_multiset, backend_multiset),
        ("backend-only", backend_multiset, engine_multiset),
    ):
        extra = [key for key, count in mine.items() if count != theirs.get(key, 0)]
        for key in sorted(map(repr, extra))[:MAX_SAMPLE_ROWS]:
            sample.append({"side": label, "row": key})
    return tuple(sample[: 2 * MAX_SAMPLE_ROWS])


def _identical(engine_result: Result, backend_result: Result) -> bool:
    """Byte-identity: the vector backend's agreement contract."""
    return (
        list(engine_result.columns) == list(backend_result.columns)
        and engine_result.rows == backend_result.rows
    )


def _compare_one(
    domain_name: str,
    split_name: str,
    pair,
    native: NativeBackend,
    backend: ExecutionBackend,
    strict: bool = False,
) -> Divergence | str:
    """Run one pair on both backends; a :class:`Divergence` or a verdict
    string (``"agree"`` / ``"both-error"``).

    ``strict`` switches agreement from the tolerant cross-engine comparison
    to byte-identity (columns, rows, order) — used for the vector backend,
    whose contract is exact equality with the row engine."""

    def attempt(executor):
        try:
            return executor.execute(pair.sql), None
        except ExecutionError as exc:
            return None, str(exc)

    engine_result, engine_error = attempt(native)
    backend_result, backend_error = attempt(backend)
    if engine_result is None and backend_result is None:
        return "both-error"
    if engine_result is None:
        return Divergence(
            domain=domain_name, split=split_name, question=pair.question,
            sql=pair.sql, kind="engine-error",
            detail="the in-repo engine rejected a query the backend accepts: "
            + str(engine_error),
            backend_rows=len(backend_result.rows),
        )
    if backend_result is None:
        return Divergence(
            domain=domain_name, split=split_name, question=pair.question,
            sql=pair.sql, kind="backend-error",
            detail=f"{backend.name} rejected a query the engine accepts: "
            + str(backend_error),
            engine_rows=len(engine_result.rows),
        )
    if strict:
        if _identical(engine_result, backend_result):
            return "agree"
    elif _results_agree(pair.sql, engine_result, backend_result):
        return "agree"
    ordered = _is_ordered(pair.sql)
    if len(engine_result.rows) != len(backend_result.rows):
        detail = (
            f"row count {len(engine_result.rows)} vs {len(backend_result.rows)}"
        )
    elif engine_result.rows and len(engine_result.rows[0]) != len(
        backend_result.rows[0]
    ):
        detail = (
            f"column count {len(engine_result.rows[0])} vs "
            f"{len(backend_result.rows[0])}"
        )
    elif strict:
        detail = "results not byte-identical (strict comparison)"
    else:
        detail = "row contents differ" + (" (ordered comparison)" if ordered else "")
    return Divergence(
        domain=domain_name, split=split_name, question=pair.question,
        sql=pair.sql, kind="result-mismatch", detail=detail,
        engine_rows=len(engine_result.rows),
        backend_rows=len(backend_result.rows),
        sample=_row_sample(engine_result, backend_result),
    )


def run_diff_exec(
    domain: BenchmarkDomain,
    backend: ExecutionBackend | str = "sqlite",
    splits: tuple[str, ...] = GOLD_SPLITS,
    strict: bool | None = None,
) -> DiffReport:
    """Differentially execute ``domain``'s query sets on both backends.

    ``splits`` picks the query sets: ``("seed", "dev")`` is the gold
    standard; add ``"synth"`` for the silver split (skipped with a per-split
    note when the domain has none materialised).  ``strict`` selects
    byte-identical comparison; the default (None) enables it exactly for
    the ``vector`` backend, whose contract is exact equality.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    if strict is None:
        strict = backend.name == "vector"
    native = NativeBackend()
    native.load(domain.database)
    backend.load(domain.database)

    registry = MetricsRegistry()
    queries = registry.counter("diffexec.queries")
    agreements = registry.counter("diffexec.agreements")
    diverged = registry.counter("diffexec.divergences")

    report = DiffReport(domain=domain.name, backend=backend.name, splits=splits)
    tracer = get_tracer()
    with tracer.span("diffexec.domain", domain=domain.name, backend=backend.name):
        for split_name in splits:
            split = getattr(domain, split_name, None)
            if split is None:
                report.per_split[split_name] = {
                    "queries": 0, "agreements": 0, "divergences": 0,
                    "skipped": "split not materialised",
                }
                continue
            counts = {"queries": 0, "agreements": 0, "divergences": 0}
            with tracer.span(
                "diffexec.split", split=split_name, n_queries=len(split.pairs)
            ):
                for pair in split.pairs:
                    verdict = _compare_one(
                        domain.name, split_name, pair, native, backend,
                        strict=strict,
                    )
                    counts["queries"] += 1
                    queries.inc()
                    if verdict == "agree":
                        counts["agreements"] += 1
                        agreements.inc()
                        report.n_agreements += 1
                    elif verdict == "both-error":
                        counts["agreements"] += 1
                        agreements.inc()
                        report.n_agreements += 1
                        report.n_both_errors += 1
                    else:
                        counts["divergences"] += 1
                        diverged.inc()
                        report.divergences.append(verdict)
                    report.n_queries += 1
            report.per_split[split_name] = counts
    backend.close()
    report.metrics = registry.snapshot()
    return report


def run_three_way(
    domain: BenchmarkDomain,
    splits: tuple[str, ...] = GOLD_SPLITS,
) -> list[DiffReport]:
    """The full cross-engine gate: native vs vector *and* native vs sqlite.

    One :class:`DiffReport` per comparison arm (:data:`THREE_WAY_BACKENDS`
    order).  The vector arm is strict (byte-identity), the sqlite arm uses
    the tolerant cross-engine comparison; three engines agreeing on every
    gold and silver query is the engine-correctness bar of this repo.
    """
    return [
        run_diff_exec(domain, backend=name, splits=splits)
        for name in THREE_WAY_BACKENDS
    ]


def write_reports(reports: list[DiffReport], path: str | Path) -> Path:
    """Write the JSON divergence report (one document, one entry per domain)."""
    payload = {
        "schema_version": 1,
        "benchmark": "diff-exec",
        "agreed": all(report.agreed for report in reports),
        "reports": [report.to_dict() for report in reports],
    }
    return write_report(payload, path)
