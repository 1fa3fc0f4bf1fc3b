"""SemQL: the IRNet-style intermediate representation used by the paper.

SemQL abstracts a SQL query into a small tree whose leaves are tables (T),
columns (C) and values (V).  The paper's pipeline (Figure 1 / Figure 2)
extracts *templates* from seed queries by replacing those leaves with
positional placeholders, then re-instantiates the placeholders with sampled
database content (Algorithm 1).  The paper also extends the original SemQL
grammar with *math operators* between columns to support SDSS astrophysics
queries — :class:`MathExpr` below.

Two leaf flavours share each position in the tree:

* concrete leaves (:class:`TableLeaf`, :class:`ColumnLeaf`, :class:`ValueLeaf`)
  appear in SemQL trees lifted from real SQL;
* slot leaves (:class:`TableSlot`, :class:`ColumnSlot`, :class:`ValueSlot`)
  appear in templates and carry the quadruple positions of Figure 2.

Grammar sketch (one optional set operation, as in Spider)::

    Z      := R | R set_op R
    R      := Select [Filter] [Order]
    Select := distinct? A+ [group: C+]
    A      := agg (C | MathExpr | Star)
    Filter := and(F, F) | or(F, F) | cond(op, A, V [, V2]) | cond(op, A, R)
    Order  := direction A [limit]
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.sql.ast import field_names

#: Aggregator vocabulary, in IRNet's canonical order.
AGG_OPS = ("none", "max", "min", "count", "sum", "avg")

#: Filter condition operators supported by the grammar.
FILTER_OPS = (
    "=", "!=", "<", ">", "<=", ">=",
    "between", "like", "not_like", "in", "not_in",
)

#: Math operators of the paper's SDSS grammar extension.
MATH_OPS = ("+", "-", "*", "/")


class SemNode:
    """Base class with generic traversal, mirroring the SQL AST."""

    def children(self) -> Iterator["SemNode"]:
        for name in field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, SemNode):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, SemNode):
                        yield item

    def walk(self) -> Iterator["SemNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Leaves — concrete and slot flavours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableLeaf(SemNode):
    """A concrete table reference (the T leaf)."""

    name: str


@dataclass(frozen=True)
class TableSlot(SemNode):
    """A template placeholder T(pos)."""

    position: int


@dataclass(frozen=True)
class ColumnLeaf(SemNode):
    """A concrete column reference (the C leaf), owned by a table leaf/slot."""

    table: TableLeaf | TableSlot
    name: str


@dataclass(frozen=True)
class ColumnSlot(SemNode):
    """A template placeholder C(pos), owned by a table leaf/slot."""

    table: TableLeaf | TableSlot
    position: int


@dataclass(frozen=True)
class ValueLeaf(SemNode):
    """A concrete literal value (the V leaf)."""

    value: int | float | str | bool | None


@dataclass(frozen=True)
class ValueSlot(SemNode):
    """A template placeholder V(pos)."""

    position: int


@dataclass(frozen=True)
class StarLeaf(SemNode):
    """``*`` — only meaningful under COUNT."""


ColumnExpr = "ColumnLeaf | ColumnSlot | StarLeaf | MathExpr"


@dataclass(frozen=True)
class MathExpr(SemNode):
    """Arithmetic between two columns — the paper's grammar extension."""

    op: str
    left: ColumnLeaf | ColumnSlot
    right: ColumnLeaf | ColumnSlot

    def __post_init__(self) -> None:
        if self.op not in MATH_OPS:
            raise ValueError(f"unknown math operator {self.op!r}")


# ---------------------------------------------------------------------------
# Attributes, select, filter, order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class A(SemNode):
    """An attribute: aggregator + column expression (Figure 2's quadruple
    minus the value position, which lives on the condition)."""

    agg: str
    column: SemNode  # ColumnLeaf | ColumnSlot | StarLeaf | MathExpr
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.agg not in AGG_OPS:
            raise ValueError(f"unknown aggregator {self.agg!r}")

    @property
    def is_aggregated(self) -> bool:
        return self.agg != "none"


@dataclass(frozen=True)
class SemSelect(SemNode):
    """The projection list plus the (explicit or inferred) grouping keys.

    ``group`` of ``None`` means "infer": when the projection mixes aggregated
    and plain attributes, the plain ones become GROUP BY keys — IRNet's
    convention, which the paper's generated queries follow.
    """

    attributes: tuple[A, ...]
    distinct: bool = False
    group: tuple[SemNode, ...] | None = None  # ColumnLeaf/ColumnSlot keys


@dataclass(frozen=True)
class Condition(SemNode):
    """One filter condition over an attribute.

    Exactly one of ``value``/``subquery`` is set for unary operators;
    ``between`` also uses ``value2``.
    """

    op: str
    attribute: A
    value: SemNode | None = None  # ValueLeaf | ValueSlot
    value2: SemNode | None = None
    subquery: "R | None" = None

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise ValueError(f"unknown filter operator {self.op!r}")


@dataclass(frozen=True)
class FilterNode(SemNode):
    """AND/OR combination of two filters (IRNet keeps filters binary)."""

    op: str  # "and" | "or"
    left: "FilterNode | Condition"
    right: "FilterNode | Condition"


@dataclass(frozen=True)
class Order(SemNode):
    """ORDER BY direction over an attribute; ``limit`` makes it the
    Superlative production."""

    direction: str  # "asc" | "desc"
    attribute: A
    limit: int | None = None


@dataclass(frozen=True)
class R(SemNode):
    """A single query root: Select [Filter] [Order].

    ``from_table`` pins the query's primary table explicitly; without it a
    ``SELECT COUNT(*) FROM t`` tree would reference no table at all (the
    star leaf carries none) and could not be lowered back to SQL.
    """

    select: SemSelect
    filter: "FilterNode | Condition | None" = None
    order: Order | None = None
    from_table: "TableLeaf | TableSlot | None" = None


@dataclass(frozen=True)
class Z(SemNode):
    """The top rule: one R, or two combined by a set operation."""

    left: R
    set_op: str | None = None  # "union" | "intersect" | "except"
    right: R | None = None


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


def is_template(node: SemNode) -> bool:
    """True if any leaf under ``node`` is a slot placeholder."""
    return any(
        isinstance(n, (TableSlot, ColumnSlot, ValueSlot)) for n in node.walk()
    )


def tables_of(node: SemNode) -> list[str]:
    """Distinct concrete table names under ``node``, first-occurrence order."""
    seen: dict[str, None] = {}
    for n in node.walk():
        if isinstance(n, TableLeaf):
            seen.setdefault(n.name, None)
    return list(seen)


def conditions_of(node: SemNode) -> list[Condition]:
    """All filter conditions under ``node`` in pre-order."""
    return [n for n in node.walk() if isinstance(n, Condition)]


def attributes_of(node: SemNode) -> list[A]:
    """All attributes under ``node`` in pre-order."""
    return [n for n in node.walk() if isinstance(n, A)]


def map_tree(node: SemNode, fn) -> SemNode:
    """Rebuild a SemQL tree bottom-up, applying ``fn`` to every node."""
    kwargs = {}
    for name in field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, SemNode):
            kwargs[name] = map_tree(value, fn)
        elif isinstance(value, tuple):
            kwargs[name] = tuple(
                map_tree(v, fn) if isinstance(v, SemNode) else v for v in value
            )
        else:
            kwargs[name] = value
    return fn(type(node)(**kwargs))
