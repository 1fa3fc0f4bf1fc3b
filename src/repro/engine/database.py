"""The :class:`Database`: a schema plus populated tables plus an executor.

This is the central runtime object of the reproduction: the augmentation
pipeline samples values from it, the NL-to-SQL systems index its contents for
value linking, and the evaluation harness executes gold and predicted SQL
against it to compute execution accuracy.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ExecutionError, SchemaError
from repro.schema.model import Schema
from repro.engine.executor import Executor, Result
from repro.engine.table import Table


class Database:
    """An in-memory relational database instance.

    Queries run on the columnar ``vector`` engine, which falls back per
    query to a fresh row :class:`Executor` for anything it cannot reproduce
    byte for byte.  The row engine stays selectable (``set_engine("native")``)
    as the oracle differential execution and the tests compare against.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.name = schema.name
        self._tables: dict[str, Table] = {
            t.name.lower(): Table(t) for t in schema.tables
        }
        self._engine_name = "vector"
        self._executor = self._make_executor(self._engine_name)

    # -- engine selection --------------------------------------------------------

    @property
    def engine_name(self) -> str:
        """The active execution engine: ``vector`` (default) or ``native`` (row)."""
        return self._engine_name

    def set_engine(self, name: str) -> None:
        """Swap the execution engine.  Results are byte-identical between
        engines (the vector engine's contract); only performance differs."""
        if name != self._engine_name:
            self._executor = self._make_executor(name)
            self._engine_name = name

    def _make_executor(self, name: str):
        if name == "native":
            return Executor(self)
        if name == "vector":
            from repro.engine.vector import VectorEngine

            return VectorEngine(self)
        raise ExecutionError(
            f"unknown engine {name!r}; expected 'native' or 'vector'"
        )

    def reset_engine(self) -> None:
        """Replace the executor with a fresh one of the same engine: new
        locks, empty caches.  A forked process calls this on databases it
        shares with its parent, whose threads may have held a lock at the
        moment of the fork."""
        self._executor = self._make_executor(self._engine_name)

    # The executor is derived state (the vector engine holds a lock and
    # caches over the tables), so pickles and deep copies carry only the
    # data and the engine name, and the copy rebuilds its own executor.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_executor"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.reset_engine()

    # -- table access -----------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"no table {name!r} in database {self.name!r}"
            ) from None

    def tables(self) -> list[Table]:
        return [self._tables[t.name.lower()] for t in self.schema.tables]

    def data_version(self) -> int:
        """Monotonic counter covering every table's contents; caches keyed
        on it (vector-engine scan selections, join indexes) invalidate on
        any insert anywhere in the database."""
        return sum(t.version for t in self._tables.values())

    def insert(self, table: str, rows: Iterable[tuple | list]) -> None:
        """Bulk-insert rows into one table."""
        self.table(table).insert_many(rows)

    # -- querying ----------------------------------------------------------------

    def execute(self, sql) -> Result:
        """Execute a SQL string or a pre-parsed :class:`~repro.sql.ast.Query`."""
        from repro.sql import ast, parse

        if isinstance(sql, str):
            query = parse(sql)
        elif isinstance(sql, ast.Query):
            query = sql
        else:
            raise ExecutionError(f"cannot execute {type(sql).__name__}")
        return self._executor.execute(query)

    def try_execute(self, sql) -> Result | None:
        """Execute, returning None instead of raising on any library error.

        Used by the pipeline's executability filter and by the evaluation
        harness, where a failing predicted query simply scores zero.
        """
        from repro.errors import ReproError

        try:
            return self.execute(sql)
        except ReproError:
            return None
        except RecursionError:
            return None

    # -- statistics (Table 1) ------------------------------------------------------

    def row_count(self) -> int:
        return sum(len(t) for t in self.tables())

    def average_rows_per_table(self) -> float:
        tables = self.tables()
        if not tables:
            return 0.0
        return self.row_count() / len(tables)

    def estimated_bytes(self) -> int:
        return sum(t.estimated_bytes() for t in self.tables())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, {len(self._tables)} tables, {self.row_count()} rows)"


def create_database(schema: Schema, data: dict[str, list[tuple]] | None = None) -> Database:
    """Build a database from a schema and an optional ``{table: rows}`` mapping."""
    db = Database(schema)
    if data:
        for table_name, rows in data.items():
            if not schema.has_table(table_name):
                raise SchemaError(f"data provided for unknown table {table_name!r}")
            db.insert(table_name, rows)
    return db
