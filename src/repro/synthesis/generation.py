"""Phase 2 — SQL Query Generation (Section 3.3.2, Algorithm 1).

Templates from the seeding phase are instantiated against the target
database: every placeholder position is resolved through a hash map exactly
as in Algorithm 1 (``Tables``, ``Columns``, ``Values``), with new leaves
drawn by constrained sampling functions over the *enhanced schema*:

* ``sample_table`` — any populated table;
* ``sample_column`` — respects the slot's context: SUM/AVG slots only draw
  aggregatable numeric columns, GROUP BY slots only categorical columns,
  math-expression slots only commensurable columns from one math group,
  range-comparison slots only numeric columns, LIKE slots only text columns;
* ``sample_value`` — draws from the actual database content of the sampled
  column (numbers may interpolate within the observed range).

Instantiated trees are lowered to SQL and must execute; with
``require_nonempty`` they must also return rows.  Failures are retried up to
``max_attempts`` times before the template instance is abandoned — the
mechanism behind the paper's observation that complex templates yield fewer
(and easier) synthetic queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis import analyze, rejects_execution
from repro.engine.database import Database
from repro.errors import GenerationError, ReproError
from repro.nlgen.lexicon import render_value
from repro.schema.enhanced import EnhancedSchema
from repro.schema.model import Column, ColumnType
from repro.semql import nodes as sq
from repro.semql.templates import Template
from repro.semql.to_sql import semql_to_sql

_RANGE_OPS = {">", "<", ">=", "<=", "between"}


@dataclass
class GenerationConfig:
    """Knobs of the SQL generation phase."""

    queries_per_template: int = 20
    max_attempts: int = 30
    require_nonempty: bool = True
    #: Run the static analyzer on each lowered candidate and skip execution
    #: when it is provably doomed (would error, or — under
    #: ``require_nonempty`` — provably returns no rows).  The filter is
    #: sound, so it never changes *which* queries are generated for a fixed
    #: seed; it only avoids wasted executions.
    static_prefilter: bool = True


@dataclass
class GenerationStats:
    """Counters of one generation run (how the oracle budget was spent)."""

    candidates: int = 0  #: successfully lowered template instantiations
    static_rejected: int = 0  #: skipped by the analyzer without executing
    executed: int = 0  #: candidates sent to the execution oracle
    runtime_rejected: int = 0  #: executions that failed or were filtered
    accepted: int = 0  #: candidates that survived all checks

    def merge(self, other: "GenerationStats") -> None:
        self.candidates += other.candidates
        self.static_rejected += other.static_rejected
        self.executed += other.executed
        self.runtime_rejected += other.runtime_rejected
        self.accepted += other.accepted


class SqlGenerator:
    """Instantiates query templates against one database (Algorithm 1)."""

    def __init__(
        self,
        database: Database,
        enhanced: EnhancedSchema,
        rng: random.Random,
        config: GenerationConfig | None = None,
    ) -> None:
        self.database = database
        self.enhanced = enhanced
        self.schema = enhanced.schema
        self.rng = rng
        self.config = config or GenerationConfig()
        self.stats = GenerationStats()

    # -- public API ---------------------------------------------------------------

    def generate(self, templates: list[Template]) -> list[str]:
        """Generate de-duplicated executable SQL from all templates."""
        seen: set[str] = set()
        generated: list[str] = []
        for template in templates:
            for _ in range(self.config.queries_per_template):
                sql = self.instantiate(template)
                if sql is None or sql in seen:
                    continue
                seen.add(sql)
                generated.append(sql)
        return generated

    def instantiate(self, template: Template) -> str | None:
        """One executable SQL query from ``template`` (or None on failure)."""
        for _ in range(self.config.max_attempts):
            try:
                tree = self._fill(template.tree)
                sql = semql_to_sql(tree, self.schema)
            except (GenerationError, ReproError):
                continue
            self.stats.candidates += 1
            if self.config.static_prefilter and self._statically_doomed(sql):
                self.stats.static_rejected += 1
                continue
            self.stats.executed += 1
            result = self.database.try_execute(sql)
            if result is None:
                self.stats.runtime_rejected += 1
                continue
            if self.config.require_nonempty and not result.rows:
                self.stats.runtime_rejected += 1
                continue
            self.stats.accepted += 1
            return sql
        return None

    def _statically_doomed(self, sql: str) -> bool:
        """Whether the analyzer proves the oracle would reject ``sql``.

        Only *sound* verdicts count: execution-fatal rules, or a statically
        empty result when ``require_nonempty`` demands rows.  Sampling and
        retries are untouched — the candidate stream for a fixed seed is
        identical with the filter on or off; doomed candidates merely skip
        the execution step.
        """
        diagnostics = analyze(sql, self.schema, self.enhanced)
        return rejects_execution(
            diagnostics, require_nonempty=self.config.require_nonempty
        )

    # -- Algorithm 1 ---------------------------------------------------------------

    def _fill(self, tree: sq.Z) -> sq.Z:
        """Resolve every slot through the position hash maps (Algorithm 1)."""
        tables: dict[int, str] = {}
        columns: dict[int, sq.ColumnLeaf] = {}
        values: dict[int, sq.ValueLeaf] = {}

        def resolve_table(slot) -> sq.TableLeaf:
            if isinstance(slot, sq.TableLeaf):
                return slot
            if slot.position not in tables:
                tables[slot.position] = self._sample_table()
            return sq.TableLeaf(tables[slot.position])

        def resolve_column(slot, context: str) -> sq.ColumnLeaf:
            if isinstance(slot, sq.ColumnLeaf):
                return slot
            if slot.position not in columns:
                table = resolve_table(slot.table)
                taken = {
                    leaf.name
                    for leaf in columns.values()
                    if isinstance(leaf.table, sq.TableLeaf)
                    and leaf.table.name == table.name
                }
                column = self._sample_column(table.name, context, avoid=taken)
                columns[slot.position] = sq.ColumnLeaf(table=table, name=column.name)
            return columns[slot.position]

        def resolve_math(expr: sq.MathExpr) -> sq.MathExpr:
            left_table = resolve_table(
                expr.left.table if isinstance(expr.left, (sq.ColumnSlot, sq.ColumnLeaf)) else None
            )
            groups = self.enhanced.math_groups(left_table.name)
            if not groups:
                raise GenerationError(f"no math groups on table {left_table.name!r}")
            group = self.rng.choice(groups)
            pool = self.enhanced.math_columns(left_table.name, group)
            if len(pool) < 2:
                raise GenerationError(f"math group {group!r} too small")
            first, second = self.rng.sample(pool, 2)

            def math_leaf(slot, name: str) -> sq.ColumnLeaf:
                if isinstance(slot, sq.ColumnLeaf):
                    return slot
                if slot.position not in columns:
                    columns[slot.position] = sq.ColumnLeaf(table=left_table, name=name)
                return columns[slot.position]

            return sq.MathExpr(
                op=expr.op,
                left=math_leaf(expr.left, first.name),
                right=math_leaf(expr.right, second.name),
            )

        def resolve_attribute(a: sq.A, context: str | None = None) -> sq.A:
            if isinstance(a.column, sq.StarLeaf):
                return a
            if isinstance(a.column, sq.MathExpr):
                return sq.A(agg=a.agg, column=resolve_math(a.column), distinct=a.distinct)
            ctx = context or _agg_context(a.agg)
            return sq.A(
                agg=a.agg,
                column=resolve_column(a.column, ctx),
                distinct=a.distinct,
            )

        def resolve_value(slot, attribute: sq.A, op: str) -> sq.ValueLeaf:
            if isinstance(slot, sq.ValueLeaf):
                return slot
            if slot.position not in values:
                values[slot.position] = self._sample_value(attribute, op)
            return values[slot.position]

        def resolve_filter(node):
            if isinstance(node, sq.FilterNode):
                return sq.FilterNode(
                    op=node.op,
                    left=resolve_filter(node.left),
                    right=resolve_filter(node.right),
                )
            condition: sq.Condition = node
            context = _filter_context(condition.op, condition.attribute.agg)
            # Subquery first: in ``z > (SELECT AVG(z) ...)`` the inner AVG
            # slot shares the outer column's position and carries the
            # stricter (aggregatable) constraint — it must claim the hash
            # map entry before the outer range context does.
            subquery = None
            if condition.subquery is not None:
                subquery = resolve_r(condition.subquery)
            attribute = resolve_attribute(condition.attribute, context)
            value = value2 = None
            if condition.value is not None:
                value = resolve_value(condition.value, attribute, condition.op)
            if condition.value2 is not None:
                value2 = resolve_value(condition.value2, attribute, condition.op)
                value, value2 = _ordered_pair(value, value2)
            return sq.Condition(
                op=condition.op,
                attribute=attribute,
                value=value,
                value2=value2,
                subquery=subquery,
            )

        def resolve_r(r: sq.R) -> sq.R:
            from_table = None
            if r.from_table is not None:
                from_table = resolve_table(r.from_table)
            # Constrained slots first: a column position shared between a
            # plain projection and a GROUP BY key (or a typed filter) must
            # be resolved under the *stricter* context, otherwise Algorithm
            # 1's hash map would lock in an incompatible column.
            group = None
            if r.select.group is not None:
                group = tuple(
                    resolve_column(c, "group") if isinstance(c, sq.ColumnSlot) else c
                    for c in r.select.group
                )
            attributes = tuple(resolve_attribute(a) for a in r.select.attributes)
            filter_node = resolve_filter(r.filter) if r.filter is not None else None
            order = None
            if r.order is not None:
                order = sq.Order(
                    direction=r.order.direction,
                    attribute=resolve_attribute(r.order.attribute, "order"),
                    limit=r.order.limit,
                )
            select = sq.SemSelect(
                attributes=attributes, distinct=r.select.distinct, group=group
            )
            return sq.R(
                select=select, filter=filter_node, order=order, from_table=from_table
            )

        left = resolve_r(tree.left)
        right = resolve_r(tree.right) if tree.right is not None else None
        return sq.Z(left=left, set_op=tree.set_op, right=right)

    # -- sampling functions (the SampleTable/SampleColumn/SampleValue of
    # -- Algorithm 1) ---------------------------------------------------------

    def _sample_table(self) -> str:
        populated = [
            t.name for t in self.schema.tables if len(self.database.table(t.name)) > 0
        ]
        if not populated:
            raise GenerationError("no populated tables to sample from")
        # Weight by data volume so synthetic queries concentrate on the
        # content-bearing tables rather than tiny lookup tables.
        weights = [len(self.database.table(name)) ** 0.5 for name in populated]
        return self.rng.choices(populated, weights=weights, k=1)[0]

    def _sample_column(
        self, table: str, context: str, avoid: set[str] | None = None
    ) -> Column:
        pool = column_pool(self.enhanced, table, context)
        if not pool:
            raise GenerationError(f"no {context!r}-compatible column in {table!r}")
        if avoid:
            fresh = [c for c in pool if c.name not in avoid]
            if fresh:
                pool = fresh
        return self.rng.choice(pool)

    def _sample_value(self, attribute: sq.A, op: str) -> sq.ValueLeaf:
        column = attribute.column
        if isinstance(column, sq.MathExpr):
            return self._sample_math_value(column)
        if not isinstance(column, sq.ColumnLeaf) or not isinstance(
            column.table, sq.TableLeaf
        ):
            raise GenerationError("cannot sample a value without a concrete column")
        table = self.database.table(column.table.name)
        pool = table.distinct_values(column.name)
        if not pool:
            raise GenerationError(
                f"no values in {column.table.name}.{column.name}"
            )
        if op == "like":
            text = str(self.rng.choice([v for v in pool if isinstance(v, str)] or pool))
            if len(text) > 4:
                start = self.rng.randrange(0, max(1, len(text) - 3))
                text = text[start : start + self.rng.randint(3, 6)]
            return sq.ValueLeaf(value=f"%{text}%")
        value = self.rng.choice(pool)
        if op in _RANGE_OPS and isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers = [v for v in pool if isinstance(v, (int, float))]
            low, high = min(numbers), max(numbers)
            if isinstance(value, float):
                value = round(self.rng.uniform(low, high), 3)
            elif low < high:
                value = self.rng.randint(int(low), int(high))
        return sq.ValueLeaf(value=value)

    def _sample_math_value(self, expr: sq.MathExpr) -> sq.ValueLeaf:
        """A plausible threshold for ``col1 op col2`` comparisons, drawn from
        the observed distribution of the expression over the data."""
        left, right = expr.left, expr.right
        if not (isinstance(left, sq.ColumnLeaf) and isinstance(right, sq.ColumnLeaf)):
            raise GenerationError("math expression not concrete")
        table = self.database.table(left.table.name)
        li = table.column_index(left.name)
        ri = table.column_index(right.name)
        samples = []
        for row in table.rows[:500]:
            a, b = row[li], row[ri]
            if a is None or b is None:
                continue
            samples.append(_apply(expr.op, a, b))
        if not samples:
            raise GenerationError("no data to derive a math threshold from")
        return sq.ValueLeaf(value=round(self.rng.choice(samples), 3))


def column_pool(enhanced: EnhancedSchema, table: str, context: str) -> list[Column]:
    """Columns of ``table`` compatible with a slot ``context``.

    Shared between random instantiation (Phase 2) and the link-guided
    instantiation inside the NL-to-SQL systems.
    """
    schema = enhanced.schema
    if context == "group":
        return enhanced.categorical_columns(table)
    if context in ("sum", "avg"):
        return enhanced.aggregatable_columns(table)
    if context in ("max", "min", "order", "range"):
        return [
            c
            for c in schema.table(table).columns
            if c.type.is_numeric or c.type is ColumnType.DATE
        ]
    if context == "like":
        return [c for c in schema.table(table).columns if c.type is ColumnType.TEXT]
    if context == "equality":
        categorical = enhanced.categorical_columns(table)
        return categorical or enhanced.projectable_columns(table)
    return enhanced.projectable_columns(table)


def _agg_context(agg: str) -> str:
    if agg in ("sum", "avg"):
        return agg
    if agg in ("max", "min"):
        return agg
    return "projection"


def _filter_context(op: str, agg: str) -> str:
    if agg in ("sum", "avg", "max", "min", "count"):
        return _agg_context(agg) if agg != "count" else "projection"
    if op in _RANGE_OPS:
        return "range"
    if op in ("like", "not_like"):
        return "like"
    if op in ("=", "!="):
        return "equality"
    return "projection"


def _ordered_pair(a: sq.ValueLeaf, b: sq.ValueLeaf):
    av, bv = a.value, b.value
    if isinstance(av, (int, float)) and isinstance(bv, (int, float)):
        if av > bv:
            return sq.ValueLeaf(bv), sq.ValueLeaf(av)
    return a, b


def _apply(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        return 0.0
    return a / b


def describe_value(value: sq.ValueLeaf) -> str:
    """Debug helper: render a value leaf the way questions will see it."""
    return render_value(value.value)
