"""Typed abstract syntax tree for the benchmark's SQL dialect.

The node set mirrors what Spider queries (and the paper's SDSS math-operator
extension) require.  All nodes are frozen dataclasses: structural equality and
hashing come for free, which the template machinery and the NL-to-SQL beam
search both rely on.

The tree is intentionally *syntactic*: column references are unresolved
``(table_or_alias, column)`` pairs; resolution against a schema happens in
``repro.engine.executor`` and ``repro.semql.from_sql``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cache


@cache
def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass node type's field names in declaration order, computed
    once per type (tree walks visit millions of nodes)."""
    return tuple(f.name for f in fields(cls))


class Node:
    """Base class for all AST nodes; provides generic child traversal."""

    def children(self) -> Iterator["Node"]:
        """Yield every direct child node (descends into lists and tuples)."""
        for name in field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference such as ``T1.ra`` or ``z``."""

    table: str | None
    column: str

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``T1.*`` in a select list or inside COUNT."""

    table: str | None = None


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool or None (SQL NULL)."""

    value: int | float | str | bool | None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic between expressions: ``+ - * / %``.

    This is the node the paper's SemQL extension adds for SDSS queries like
    ``p.u - p.r < 2.22``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryMinus(Expr):
    """Numeric negation, e.g. ``-1``."""

    operand: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """An aggregate or scalar function call (COUNT, SUM, AVG, MIN, MAX, ABS)."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


#: Function names treated as aggregates by the executor and hardness metric.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary predicate: ``= != <> < > <= >= like not like``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal values."""

    expr: Expr
    values: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Expr
    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesised subquery used as a scalar value in a comparison."""

    query: "Query"


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation of a boolean expression."""

    operand: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    """N-ary AND / OR over boolean operands (flattened during parsing)."""

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef(Node):
    """A base table in FROM, optionally aliased (``specobj AS s``)."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is visible as inside the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(Node):
    """A derived table in FROM (``FROM (SELECT ...) AS d``)."""

    query: "Query"
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or "_subquery"


@dataclass(frozen=True)
class Join(Node):
    """An INNER JOIN clause with an ON condition (Spider uses only these)."""

    table: TableRef
    condition: Expr | None


@dataclass(frozen=True)
class SelectItem(Node):
    """One projection in the select list, optionally aliased."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY key with direction."""

    expr: Expr
    desc: bool = False


@dataclass(frozen=True)
class Select(Node):
    """A single SELECT core (no set operation)."""

    items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef | SubqueryRef, ...] = ()
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def table_refs(self) -> list[TableRef]:
        """All base-table references in FROM and JOIN clauses, in order."""
        refs = [t for t in self.from_tables if isinstance(t, TableRef)]
        refs.extend(j.table for j in self.joins)
        return refs


@dataclass(frozen=True)
class Query(Node):
    """A full query: a SELECT core plus at most one set operation.

    Spider's grammar allows a single UNION / INTERSECT / EXCEPT combining two
    select cores, which is what the hardness classifier expects.
    """

    select: Select
    set_op: str | None = None  # "union" | "intersect" | "except"
    right: "Query | None" = None
    set_all: bool = False  # UNION ALL

    def selects(self) -> Iterator[Select]:
        """Yield every SELECT core in this query (left to right)."""
        yield self.select
        if self.right is not None:
            yield from self.right.selects()

    def subqueries(self) -> Iterator["Query"]:
        """Yield every nested query (IN/scalar/EXISTS/derived tables)."""
        for node in self.walk():
            if isinstance(node, (InSubquery, ScalarSubquery, Exists)):
                yield node.query
            elif isinstance(node, SubqueryRef):
                yield node.query


def column_refs(node: Node) -> list[ColumnRef]:
    """All :class:`ColumnRef` nodes under ``node`` in pre-order."""
    return [n for n in node.walk() if isinstance(n, ColumnRef)]


def literals(node: Node) -> list[Literal]:
    """All :class:`Literal` nodes under ``node`` in pre-order."""
    return [n for n in node.walk() if isinstance(n, Literal)]
