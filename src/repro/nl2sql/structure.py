"""Template structure digests and question↔template compatibility scoring.

A template's structure is fully observable from its anonymized tree: how
many values it needs (and of which kind), which aggregates, grouping,
ordering, set operations, subqueries and math expressions it contains.
Matching that against the :func:`~repro.nl2sql.features.question_structure`
digest is far more discriminative than feature-centroid similarity alone —
a question supplying two numbers and no grounded text value should never
retrieve a ``country = V`` template.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.semql import nodes as sq
from repro.semql.templates import Template

_RANGE_OPS = {">", "<", ">=", "<="}


@dataclass(frozen=True)
class TemplateStructure:
    """Symbolic digest of one template."""

    numbers_needed: int
    eq_values_needed: int
    has_between: bool
    n_tables: int
    aggs: frozenset[str]
    has_group: bool
    has_order: bool
    limit_one: bool
    has_limit: bool
    set_op: str | None
    has_subquery: bool
    has_agg_condition: bool
    has_math: bool
    n_select: int
    n_conditions: int
    distinct: bool

    # Pickled sorted: a frozenset pickles in hash order (PYTHONHASHSEED).
    def __getstate__(self) -> dict:
        return {**self.__dict__, "aggs": tuple(sorted(self.aggs))}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, aggs=frozenset(state["aggs"]))


def template_structure(template: Template) -> TemplateStructure:
    tree = template.tree
    numbers = 0
    eq_values = 0
    has_between = False
    aggs: set[str] = set()
    has_group = False
    has_order = False
    has_limit = False
    limit_one = False
    has_subquery = False
    has_agg_condition = False
    has_math = any(isinstance(n, sq.MathExpr) for n in tree.walk())
    n_conditions = 0
    distinct = False

    for node in tree.walk():
        if isinstance(node, sq.Condition):
            n_conditions += 1
            if node.attribute.agg != "none":
                has_agg_condition = True
            if node.subquery is not None:
                has_subquery = True
            elif node.op == "between":
                numbers += 2
                has_between = True
            elif node.op in _RANGE_OPS:
                numbers += 1
            elif node.op in ("=", "!=", "like", "not_like"):
                eq_values += 1
        elif isinstance(node, sq.A) and node.agg != "none":
            aggs.add(node.agg)
        elif isinstance(node, sq.SemSelect):
            if node.distinct:
                distinct = True
            if node.group:
                has_group = True
            elif node.group is None:
                aggregated = any(a.is_aggregated for a in node.attributes)
                plain = any(not a.is_aggregated for a in node.attributes)
                if aggregated and plain:
                    has_group = True
        elif isinstance(node, sq.Order):
            has_order = True
            if node.limit is not None:
                has_limit = True
                limit_one = node.limit == 1

    return TemplateStructure(
        numbers_needed=numbers,
        eq_values_needed=eq_values,
        has_between=has_between,
        n_tables=max(template.n_tables, 1),
        aggs=frozenset(aggs),
        has_group=has_group,
        has_order=has_order,
        limit_one=limit_one,
        has_limit=has_limit,
        set_op=tree.set_op,
        has_subquery=has_subquery,
        has_agg_condition=has_agg_condition,
        has_math=has_math,
        n_select=len(tree.left.select.attributes),
        n_conditions=n_conditions,
        distinct=distinct,
    )


def compatibility(
    question_struct: dict, structure: TemplateStructure, n_table_links: int = 1
) -> float:
    """Compatibility score (higher = better; 0 is neutral)."""
    q = question_struct
    score = 0.0

    # Value arity — the strongest signal.  A template must consume roughly
    # the numbers and grounded values the question supplies.  Numbers are
    # split between *range* conditions (one per comparator phrase the
    # question utters) and *numeric equality* ("projects with start year
    # 2018" has a number but no comparator — that number feeds an = slot).
    n_numbers = min(q["n_numbers"], 4)
    # An explicit top-k ("top 5") spends one of the question's numbers.
    if q["limit_k"] is not None and n_numbers > 0:
        n_numbers -= 1
    n_range_slots = q.get("n_range_intents", 0)
    if q.get("having"):
        n_range_slots = max(0, n_range_slots - 1)  # HAVING consumes one
    if q.get("subquery"):
        n_range_slots = max(0, n_range_slots - 1)  # ... as does > (SELECT AVG ...)
    numbers_for_range = min(n_numbers, n_range_slots)
    numbers_leftover = n_numbers - numbers_for_range
    score -= 1.4 * abs(structure.numbers_needed - numbers_for_range)
    n_values = min(q["n_value_links"], 3) + numbers_leftover
    score -= 1.0 * min(abs(structure.eq_values_needed - n_values), 3)
    if q["between"] and structure.has_between:
        score += 1.0
    elif q["between"] != structure.has_between:
        score -= 0.8

    # Projection arity and join footprint.
    score -= 0.5 * min(abs(structure.n_select - q.get("n_select_hint", 1)), 2)
    score -= 0.6 * min(abs(structure.n_tables - max(1, n_table_links)), 2)

    # Aggregates.
    for agg in ("count", "avg", "sum", "max", "min"):
        wanted = agg in q["aggs"]
        present = agg in structure.aggs
        if wanted and present:
            score += 1.0
        elif wanted != present:
            score -= 1.0

    # Grouping.
    if q["group"] and structure.has_group:
        score += 1.2
    elif q["group"] != structure.has_group:
        score -= 1.2

    # Ordering and superlatives.
    if q["superlative"]:
        score += 1.2 if (structure.has_order and structure.has_limit) else -1.2
    elif q["limit_k"] is not None:
        score += 1.0 if structure.has_limit else -1.0
    elif q["order"]:
        score += 0.8 if structure.has_order else -0.8
    elif structure.has_order:
        score -= 0.8

    # Set operations.
    if q["union"] and structure.set_op == "union":
        score += 1.4
    elif q["except"] and structure.set_op == "except":
        score += 1.4
    elif structure.set_op is not None and not (q["union"] or q["except"]):
        score -= 1.4

    # HAVING (aggregate-threshold conditions).
    if q.get("having") and structure.has_agg_condition:
        score += 1.4
    elif q.get("having", False) != structure.has_agg_condition:
        score -= 1.0

    # Subqueries and math.
    if q["subquery"] and structure.has_subquery:
        score += 1.2
    elif q["subquery"] != structure.has_subquery:
        score -= 1.0
    if q["math"] and structure.has_math:
        score += 1.4
    elif q["math"] != structure.has_math:
        score -= 1.0

    if q["distinct"] == structure.distinct:
        score += 0.2

    return score
