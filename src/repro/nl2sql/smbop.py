"""SmBoP-style system: semi-autoregressive bottom-up semantic parsing.

Like the real SmBoP (Rubin & Berant 2021), decoding builds the query tree
from the leaves up — no template memory is involved.  Grounded columns
become attributes, attributes plus comparator intents and grounded values
become predicates, predicates and projections assemble into a full query.
The learned lexicon feeds the schema linker (that is what training changes),
so SmBoP generalises *structure* well but cannot represent anything its
bottom-up grammar lacks (set operations, math expressions unless linked),
matching its relative standing in Table 5.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.nl2sql.base import DomainContext, NLToSQLSystem
from repro.nl2sql.features import (
    comparator_intents,
    extract_limit,
    question_structure,
)
from repro.nl2sql.linking import Links
from repro.schema.model import ColumnType
from repro.semql import nodes as sq
from repro.semql.to_sql import semql_to_sql

_RANGE_OPS = frozenset({">", "<", ">=", "<="})


class SmBoP(NLToSQLSystem):
    """Bottom-up beam assembly of SemQL trees."""

    name = "smbop"

    def __init__(self, beam_size: int = 6) -> None:
        super().__init__()
        self.beam_size = beam_size
        #: Learned projection prior: how often each (db, table, column) is
        #: projected in training SQL — the decoder-side statistic a trained
        #: bottom-up parser absorbs, and the channel through which domain
        #: seed/synth data improves SmBoP in Table 5.
        self._projection_counts: dict[tuple[str, str, str], int] = {}

    def _observe(self, pair, z) -> None:
        if z is None:
            return
        for r in (z.left, z.right):
            if r is None:
                continue
            for attribute in r.select.attributes:
                column = attribute.column
                if isinstance(column, sq.ColumnLeaf) and isinstance(
                    column.table, sq.TableLeaf
                ):
                    key = (
                        pair.db_id,
                        column.table.name.lower(),
                        column.name.lower(),
                    )
                    self._projection_counts[key] = self._projection_counts.get(key, 0) + 1

    def _projection_prior(self, db_id: str, table: str) -> list[str]:
        """Columns of ``table`` by learned projection frequency (desc)."""
        scored = [
            (count, key[2])
            for key, count in self._projection_counts.items()
            if key[0] == db_id and key[1] == table.lower()
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [column for _, column in scored]

    def _predict(self, question: str, context: DomainContext) -> str | None:
        links = self.link(question, context.db_id)
        strong_values = len({str(v.value).lower() for v in links.values if v.score >= 1.0})
        struct = question_structure(question, n_value_links=strong_values)
        tables = links.best_tables(k=3)
        if not tables:
            return None

        candidates: list[sq.Z] = []
        for table in tables[:2]:
            try:
                candidates.extend(
                    self._assemble(question, table, links, struct, context)
                )
            except ReproError:
                continue

        seen: set[str] = set()
        for tree in candidates[: self.beam_size * 3]:
            try:
                sql = semql_to_sql(tree, context.database.schema)
            except ReproError:
                continue
            if sql in seen:
                continue
            seen.add(sql)
            if context.database.try_execute(sql) is not None:
                return sql
        return None

    # -- bottom-up assembly -------------------------------------------------------

    def _assemble(
        self, question: str, table: str, links: Links, struct: dict, context
    ) -> list[sq.Z]:
        schema = context.database.schema
        enhanced = context.enhanced
        table_name = schema.table(table).name
        table_leaf = sq.TableLeaf(table_name)

        boundary = self._filter_boundary(question)
        mentions = self._usable_mentions(links, schema, table_name)
        pre = [m for m in mentions if links.column_positions[m] < boundary]
        post = [m for m in mentions if links.column_positions[m] >= boundary]
        numbers = list(links.numbers)
        explicit_limit = extract_limit(question)
        if explicit_limit is not None:
            numbers = [n for n in numbers if n != float(explicit_limit)] or numbers[1:]

        # ---- projections (leaves → attributes) -----------------------------
        projections = self._projections(
            struct, pre, post, schema, table_name, context.db_id
        )

        # ---- filter conditions ----------------------------------------------
        filter_node, numbers = self._conditions(
            question, struct, links, post + pre, numbers, schema, table_name
        )

        # ---- grouping --------------------------------------------------------
        group = None
        if struct["group"]:
            group = self._group_key(mentions, enhanced, table_name, schema)

        # ---- ordering --------------------------------------------------------
        order = self._order(question, struct, mentions, schema, explicit_limit)

        trees: list[sq.Z] = []
        for attributes in projections:
            select_attrs = attributes
            select_group = None
            if group is not None:
                has_agg = any(a.is_aggregated for a in select_attrs)
                if has_agg:
                    if not any(
                        isinstance(a.column, sq.ColumnLeaf)
                        and a.column.name == group.name
                        for a in select_attrs
                    ):
                        select_attrs = select_attrs + (sq.A(agg="none", column=group),)
                    select_group = (group,)
            select = sq.SemSelect(
                attributes=select_attrs,
                distinct=struct["distinct"] and not any(a.is_aggregated for a in select_attrs),
                group=select_group,
            )
            having = None
            if struct["having"] and numbers:
                having = sq.Condition(
                    op=">" if struct["greater"] or not struct["less"] else "<",
                    attribute=sq.A(agg="count", column=sq.StarLeaf()),
                    value=sq.ValueLeaf(value=_as_int(numbers[0])),
                )
                if select_group is None and group is not None:
                    select_group = (group,)
                    select = sq.SemSelect(
                        attributes=select_attrs, distinct=False, group=select_group
                    )
            combined = filter_node
            if having is not None:
                combined = (
                    having
                    if combined is None
                    else sq.FilterNode(op="and", left=combined, right=having)
                )
            trees.append(
                sq.Z(
                    left=sq.R(
                        select=select,
                        filter=combined,
                        order=order,
                        from_table=table_leaf,
                    )
                )
            )
            # Beam variation: same projection without the last condition.
            if filter_node is not None and having is None:
                trees.append(
                    sq.Z(
                        left=sq.R(
                            select=select,
                            filter=_drop_last(filter_node),
                            order=order,
                            from_table=table_leaf,
                        )
                    )
                )
        return trees

    # -- components ---------------------------------------------------------------

    @staticmethod
    def _filter_boundary(question: str) -> int:
        from repro.nl2sql.features import _PROJECTION_BOUNDARY_RE

        match = _PROJECTION_BOUNDARY_RE.search(question.lower())
        return match.start() if match else len(question)

    def _usable_mentions(self, links: Links, schema, table_name: str):
        """Column mentions on the chosen table or FK-adjacent tables."""
        reachable = {table_name.lower()}
        for fk in schema.foreign_keys_of(table_name):
            reachable.add(fk.table.lower())
            reachable.add(fk.ref_table.lower())
        main = table_name.lower()
        usable = [key for key in links.mention_order() if key[0] in reachable]
        # Prefer the main table's own columns when a phrase is ambiguous
        # across FK-adjacent tables (``ra`` lives on photoobj *and* specobj).
        positions = links.column_positions
        deduped: list[tuple[str, str]] = []
        for key in usable:
            twin = (main, key[1])
            if key[0] != main and twin in usable and positions.get(twin) == positions.get(key):
                continue
            deduped.append(key)
        return deduped

    def _projections(self, struct, pre, post, schema, table_name, db_id):
        """Candidate attribute tuples, most likely first."""
        options: list[tuple[sq.A, ...]] = []
        pre_leaves = [self._leaf(key, schema) for key in pre[:3]]

        agg = None
        for name in ("count", "avg", "sum", "max", "min"):
            if name in struct["aggs"]:
                agg = name
                break
        if struct["having"]:
            agg = None  # the aggregate belongs to the HAVING clause

        if agg == "count":
            options.append((sq.A(agg="count", column=sq.StarLeaf()),))
            if pre_leaves:
                options.append(
                    (
                        sq.A(agg="count", column=sq.StarLeaf()),
                        sq.A(agg="none", column=pre_leaves[0]),
                    )
                )
        elif agg is not None:
            target = None
            for leaf in pre_leaves or [self._leaf(key, schema) for key in post[:2]]:
                column = schema.column(leaf.table.name, leaf.name)
                if column.type.is_numeric:
                    target = leaf
                    break
            if target is not None:
                options.append((sq.A(agg=agg, column=target),))

        if pre_leaves:
            arity = min(struct.get("n_select_hint", 1), len(pre_leaves))
            if arity >= 2:
                options.append(
                    tuple(sq.A(agg="none", column=leaf) for leaf in pre_leaves[:arity])
                )
            options.append((sq.A(agg="none", column=pre_leaves[0]),))
        if not options:
            # "Return the spectroscopic objects ..." names no column: the
            # entity itself is requested.  Prefer whatever this table's
            # training data most often projects (the learned prior), then
            # the primary key.
            main = schema.table(table_name)
            fallback = None
            for column in self._projection_prior(db_id, table_name):
                if main.has_column(column):
                    fallback = column
                    break
            if fallback is None and main.primary_key:
                fallback = main.primary_key
            if fallback is not None and "count" not in struct["aggs"]:
                options.append(
                    (
                        sq.A(
                            agg="none",
                            column=sq.ColumnLeaf(
                                table=sq.TableLeaf(main.name), name=fallback
                            ),
                        ),
                    )
                )
            options.append((sq.A(agg="count", column=sq.StarLeaf()),))
        return options

    def _conditions(self, question, struct, links, filter_mentions, numbers, schema, table_name):
        """Assemble the WHERE tree from comparator intents and value links."""
        conditions: list[sq.Condition] = []
        intents = comparator_intents(question)
        mention_pool = list(filter_mentions)
        numbers = list(numbers)
        used_values: set[str] = set()
        filtered_columns: set[tuple[str, str]] = set()

        if struct["having"]:
            # The first comparator (and its number) belongs to HAVING.
            if intents:
                intents.pop(0)

        if struct["subquery"] and not struct["having"]:
            sub_condition = self._subquery_condition(struct, mention_pool, schema)
            if sub_condition is not None:
                conditions.append(sub_condition)
                if intents:
                    intents.pop(0)

        for intent in intents:
            if intent in _RANGE_OPS and numbers:
                leaf = self._numeric_mention(mention_pool, schema)
                if leaf is None:
                    continue
                conditions.append(
                    sq.Condition(
                        op=intent,
                        attribute=sq.A(agg="none", column=leaf),
                        value=sq.ValueLeaf(value=_coerce_number(numbers.pop(0), leaf, schema)),
                    )
                )
            elif intent == "between" and len(numbers) >= 2:
                leaf = self._numeric_mention(mention_pool, schema)
                if leaf is None:
                    continue
                lo, hi = sorted(numbers[:2])
                numbers = numbers[2:]
                conditions.append(
                    sq.Condition(
                        op="between",
                        attribute=sq.A(agg="none", column=leaf),
                        value=sq.ValueLeaf(value=_coerce_number(lo, leaf, schema)),
                        value2=sq.ValueLeaf(value=_coerce_number(hi, leaf, schema)),
                    )
                )
            elif intent in ("=", "!="):
                condition = self._equality_condition(
                    intent, links, mention_pool, numbers, schema, used_values, filtered_columns
                )
                if condition is not None:
                    conditions.append(condition)

        # Grounded values without an explicit comparator ("Starburst
        # galaxies") become equality conditions.
        for link in links.values:
            if len(conditions) >= 3:
                break
            if link.score < 1.0 or str(link.value).lower() in used_values:
                continue
            # One equality filter per column: contradictory conditions like
            # ``class = 'X' AND class = 'Y'`` are never what a question means.
            if (link.table, link.column) in filtered_columns:
                continue
            used_values.add(str(link.value).lower())
            filtered_columns.add((link.table, link.column))
            conditions.append(
                sq.Condition(
                    op="=",
                    attribute=sq.A(agg="none", column=self._leaf((link.table, link.column), schema)),
                    value=sq.ValueLeaf(value=link.value),
                )
            )

        if not conditions:
            return None, numbers
        tree = conditions[0]
        for condition in conditions[1:]:
            tree = sq.FilterNode(op="and", left=tree, right=condition)
        return tree, numbers

    def _equality_condition(
        self, intent, links, mention_pool, numbers, schema, used_values, filtered_columns
    ):
        for link in links.values:
            if link.score < 1.0 or str(link.value).lower() in used_values:
                continue
            if (link.table, link.column) in filtered_columns:
                continue
            used_values.add(str(link.value).lower())
            filtered_columns.add((link.table, link.column))
            return sq.Condition(
                op=intent,
                attribute=sq.A(agg="none", column=self._leaf((link.table, link.column), schema)),
                value=sq.ValueLeaf(value=link.value),
            )
        if numbers:
            leaf = self._numeric_mention(mention_pool, schema)
            if leaf is not None:
                return sq.Condition(
                    op=intent,
                    attribute=sq.A(agg="none", column=leaf),
                    value=sq.ValueLeaf(value=_coerce_number(numbers.pop(0), leaf, schema)),
                )
        return None

    def _subquery_condition(self, struct, mention_pool, schema):
        leaf = self._numeric_mention(list(mention_pool), schema)
        if leaf is None:
            return None
        sub = sq.R(
            select=sq.SemSelect(attributes=(sq.A(agg="avg", column=leaf),)),
            from_table=leaf.table,
        )
        op = "<" if struct["less"] and not struct["greater"] else ">"
        return sq.Condition(op=op, attribute=sq.A(agg="none", column=leaf), subquery=sub)

    def _numeric_mention(self, mention_pool, schema):
        for key in list(mention_pool):
            column = schema.column(key[0], key[1])
            if column.type.is_numeric or column.type is ColumnType.DATE:
                mention_pool.remove(key)
                return self._leaf(key, schema)
        return None

    def _group_key(self, mentions, enhanced, table_name, schema):
        categorical = {
            c.name.lower() for c in enhanced.categorical_columns(table_name)
        }
        for key in mentions:
            if key[0] == table_name.lower() and key[1] in categorical:
                return self._leaf(key, schema)
        pool = enhanced.categorical_columns(table_name)
        if pool:
            return sq.ColumnLeaf(table=sq.TableLeaf(table_name), name=pool[0].name)
        return None

    def _order(self, question, struct, mentions, schema, explicit_limit):
        if not struct["superlative"] and not struct["order"] and explicit_limit is None:
            return None
        if struct["having"]:
            return None
        target = None
        # The order key is usually the LAST numeric column mentioned.
        for key in reversed(mentions):
            column = schema.column(key[0], key[1])
            if column.type.is_numeric or column.type is ColumnType.DATE:
                target = self._leaf(key, schema)
                break
        if target is None:
            return None
        lowered = question.lower()
        descending = any(
            w in lowered for w in ("highest", "largest", "top", "most", "descending", "best")
        )
        limit = explicit_limit
        if struct["superlative"] and limit is None:
            limit = 1
        return sq.Order(
            direction="desc" if descending else "asc",
            attribute=sq.A(agg="none", column=target),
            limit=limit,
        )

    @staticmethod
    def _leaf(key, schema) -> sq.ColumnLeaf:
        table = schema.table(key[0]).name
        column = schema.column(table, key[1]).name
        return sq.ColumnLeaf(table=sq.TableLeaf(table), name=column)


def _drop_last(filter_node):
    if isinstance(filter_node, sq.FilterNode):
        return filter_node.left
    return None


def _as_int(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _coerce_number(value, leaf, schema):
    column = schema.column(leaf.table.name, leaf.name)
    if column.type is ColumnType.INTEGER and float(value).is_integer():
        return int(value)
    return float(value)
