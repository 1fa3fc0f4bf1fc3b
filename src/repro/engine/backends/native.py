"""The in-repo row engine wrapped as an :class:`ExecutionBackend`.

Owns a private row :class:`~repro.engine.executor.Executor` over the
database's tables instead of going through ``Database.execute``, which runs
on the vector engine: differential execution compares every other engine
against the row engine, the semantic authority.
"""

from __future__ import annotations

from repro.engine.backends import ExecutionBackend
from repro.engine.database import Database
from repro.engine.executor import Executor, Result
from repro.errors import ExecutionError, ReproError
from repro.sql import parse


class NativeBackend(ExecutionBackend):
    """The reproduction's own row-at-a-time SQL engine."""

    name = "native"

    def __init__(self) -> None:
        self._engine = None

    def _engine_for(self, database: Database):
        return Executor(database)

    def load(self, database: Database) -> None:
        self._engine = self._engine_for(database)

    def execute(self, sql: str) -> Result:
        if self._engine is None:
            raise ExecutionError(f"{self.name} backend has no database loaded")
        return self._engine.execute(parse(sql))

    def try_execute(self, sql: str) -> Result | None:
        try:
            return self.execute(sql)
        except ReproError:
            return None
        except RecursionError:
            return None
