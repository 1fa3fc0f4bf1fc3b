"""The paper's *enhanced schema* (Section 3.3.2).

On top of the structural schema, the enhanced schema exposes the
meta-information that Phase 2 of the augmentation pipeline needs to generate
*meaningful* queries instead of merely executable ones:

* **non-aggregatable columns** — identifiers and codes that must not appear
  under SUM/AVG/MIN/MAX (``AVG(specobjid)`` is executable but meaningless);
* **categorical columns** — low-cardinality columns that are sensible
  GROUP BY keys (``specobj.class``) as opposed to near-unique measurements
  (``specobj.ra``);
* **math-operable columns** — numeric measurement columns on which arithmetic
  between columns is meaningful, partitioned into *math groups* so that only
  commensurable columns are combined (``u - r`` yes, ``length - area`` no);
* **human-readable aliases** for cryptic table/column names (``ra`` →
  "right ascension"), carried on the base :class:`~repro.schema.model.Column`
  and :class:`~repro.schema.model.TableDef` definitions.

An enhanced schema can be auto-profiled from data
(:func:`repro.schema.introspect.profile_database`) and then refined manually
by domain experts — exactly the one-shot manual step the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SchemaError
from repro.schema.model import Column, ColumnType, Schema, TableDef


@dataclass(frozen=True)
class ColumnAnnotation:
    """Pipeline-facing metadata for one column."""

    aggregatable: bool = True
    categorical: bool = False
    math_group: str | None = None

    @property
    def math_operable(self) -> bool:
        return self.math_group is not None


@dataclass(frozen=True)
class ColumnStats:
    """Value statistics of one column at profiling time.

    The static analyzer's cost pass uses these to prove predicates
    unsatisfiable (``year > max(year)``) without executing.  The engine's
    databases are frozen after population, so profiled statistics stay exact.
    """

    n_rows: int
    n_distinct: int
    n_null: int
    min_value: int | float | str | None = None
    max_value: int | float | str | None = None
    #: The full distinct-value set when small enough to store.
    values: frozenset | None = None

    # A frozenset pickles in hash order, which follows PYTHONHASHSEED; the
    # values are pickled sorted so an artifact's bytes do not.
    def __getstate__(self) -> dict:
        if self.values is None:
            return dict(self.__dict__)
        ordered = sorted(self.values, key=lambda v: (type(v).__name__, v))
        return {**self.__dict__, "values": tuple(ordered)}

    def __setstate__(self, state: dict) -> None:
        values = state["values"]
        self.__dict__.update(state, values=None if values is None else frozenset(values))


@dataclass
class EnhancedSchema:
    """A schema plus per-column annotations (the paper's "enhanced schema").

    Annotations default to the most permissive interpretation consistent with
    the column type: numeric columns are aggregatable, nothing is categorical
    and nothing is math-operable until profiled or annotated.
    """

    schema: Schema
    annotations: dict[tuple[str, str], ColumnAnnotation] = field(default_factory=dict)
    stats: dict[tuple[str, str], ColumnStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for table, column in self.annotations:
            self.schema.column(table, column)  # raises SchemaError if missing
        for table, column in self.stats:
            self.schema.column(table, column)

    # -- annotation access ---------------------------------------------------

    def annotation(self, table: str, column: str) -> ColumnAnnotation:
        """The annotation for ``table.column`` (a default when unannotated)."""
        self.schema.column(table, column)
        return self.annotations.get((table.lower(), column.lower()), ColumnAnnotation())

    def annotate(self, table: str, column: str, annotation: ColumnAnnotation) -> None:
        """Set (or replace) the annotation for a column.

        This is the manual-refinement hook the paper gives to domain experts.
        """
        self.schema.column(table, column)  # validate
        self.annotations[(table.lower(), column.lower())] = annotation

    def mark_non_aggregatable(self, table: str, *columns: str) -> None:
        for column in columns:
            current = self.annotation(table, column)
            self.annotate(table, column, replace(current, aggregatable=False))

    def mark_categorical(self, table: str, *columns: str) -> None:
        for column in columns:
            current = self.annotation(table, column)
            self.annotate(table, column, replace(current, categorical=True))

    def mark_math_group(self, table: str, group: str, *columns: str) -> None:
        for column in columns:
            if not self.schema.column(table, column).type.is_numeric:
                raise SchemaError(
                    f"math group on non-numeric column {table}.{column}"
                )
            current = self.annotation(table, column)
            self.annotate(table, column, replace(current, math_group=group))

    # -- column statistics (used by the static analyzer's cost pass) ---------

    def record_stats(self, table: str, column: str, stats: ColumnStats) -> None:
        self.schema.column(table, column)  # validate
        self.stats[(table.lower(), column.lower())] = stats

    def column_stats(self, table: str, column: str) -> ColumnStats | None:
        return self.stats.get((table.lower(), column.lower()))

    def table_rows(self, table: str) -> int | None:
        """Profiled row count of ``table`` (None when never profiled)."""
        lowered = table.lower()
        for (stats_table, _), stats in self.stats.items():
            if stats_table == lowered:
                return stats.n_rows
        return None

    # -- constrained column pools (used by the Phase-2 samplers) -------------

    def aggregatable_columns(self, table: str) -> list[Column]:
        """Columns on which SUM/AVG are meaningful (numeric + aggregatable)."""
        tdef = self.schema.table(table)
        return [
            c
            for c in tdef.columns
            if c.type.is_numeric and self.annotation(table, c.name).aggregatable
        ]

    def categorical_columns(self, table: str) -> list[Column]:
        """Columns that are sensible GROUP BY keys."""
        tdef = self.schema.table(table)
        return [c for c in tdef.columns if self.annotation(table, c.name).categorical]

    def math_columns(self, table: str, group: str | None = None) -> list[Column]:
        """Math-operable columns, optionally restricted to one math group."""
        tdef = self.schema.table(table)
        result = []
        for c in tdef.columns:
            ann = self.annotation(table, c.name)
            if ann.math_group is None:
                continue
            if group is not None and ann.math_group != group:
                continue
            result.append(c)
        return result

    def math_groups(self, table: str) -> list[str]:
        """Distinct math groups present on ``table``, in column order."""
        seen: list[str] = []
        for c in self.schema.table(table).columns:
            ann = self.annotation(table, c.name)
            if ann.math_group is not None and ann.math_group not in seen:
                seen.append(ann.math_group)
        return seen

    def projectable_columns(self, table: str) -> list[Column]:
        """All columns usable as plain projections/filters."""
        return list(self.schema.table(table).columns)

    # -- readable rendering ----------------------------------------------------

    def readable_column(self, table: str, column: str) -> str:
        """Human-readable form, e.g. ``specobj.z`` → "redshift"."""
        return self.schema.column(table, column).readable

    def readable_table(self, table: str) -> str:
        """Human-readable form, e.g. ``specobj`` → "spectroscopic object"."""
        return self.schema.table(table).readable

    def readable_sql(self, sql_text: str) -> str:
        """Rewrite a SQL string with readable table/column names.

        This is the paper's "semantically meaningful SQL" transformation used
        to aid both the SQL-to-NL model and the human experts: ``s.z`` becomes
        ``spectroscopic_object.redshift``.
        """
        from repro.sql import ast as sql_ast
        from repro.sql import parse, to_sql

        query = parse(sql_text)
        alias_to_table: dict[str, str] = {}
        for select in query.selects():
            for ref in select.table_refs():
                alias_to_table[ref.binding.lower()] = ref.name
        for sub in query.subqueries():
            for select in sub.selects():
                for ref in select.table_refs():
                    alias_to_table[ref.binding.lower()] = ref.name

        def rewrite(node: sql_ast.Node) -> sql_ast.Node:
            if isinstance(node, sql_ast.TableRef):
                readable = self.readable_table(node.name).replace(" ", "_")
                return sql_ast.TableRef(name=readable, alias=None)
            if isinstance(node, sql_ast.ColumnRef):
                table = alias_to_table.get((node.table or "").lower())
                if table is None and node.table is None:
                    table = self._owning_table(node.column, alias_to_table.values())
                if table is None:
                    return node
                readable_t = self.readable_table(table).replace(" ", "_")
                readable_c = self.readable_column(table, node.column).replace(" ", "_")
                return sql_ast.ColumnRef(table=readable_t, column=readable_c)
            return node

        return to_sql(_map_tree(query, rewrite))

    def _owning_table(self, column: str, candidates) -> str | None:
        for table in candidates:
            if self.schema.table(table).has_column(column):
                return table
        return None


def _map_tree(node, fn):
    """Rebuild an AST bottom-up, applying ``fn`` to every node."""
    from dataclasses import fields as dc_fields

    kwargs = {}
    for f in dc_fields(node):
        value = getattr(node, f.name)
        if hasattr(value, "walk") and hasattr(value, "children"):
            kwargs[f.name] = _map_tree(value, fn)
        elif isinstance(value, tuple):
            kwargs[f.name] = tuple(
                _map_tree(v, fn) if hasattr(v, "walk") else v for v in value
            )
        else:
            kwargs[f.name] = value
    rebuilt = type(node)(**kwargs)
    return fn(rebuilt)


def default_enhanced_schema(schema: Schema) -> EnhancedSchema:
    """A heuristic enhanced schema derived from names and types alone.

    Useful as a zero-data starting point; :func:`repro.schema.introspect.
    profile_database` produces a better one when data is available.
    """
    enhanced = EnhancedSchema(schema=schema)
    for table in schema.tables:
        for column in table.columns:
            if _looks_like_identifier(column, table):
                enhanced.mark_non_aggregatable(table.name, column.name)
    return enhanced


def _looks_like_identifier(column: Column, table: TableDef) -> bool:
    name = column.name.lower()
    if table.primary_key and name == table.primary_key.lower():
        return True
    if name.endswith(("id", "_key", "_code", "code")) or name == "id":
        return True
    return column.type is ColumnType.TEXT
