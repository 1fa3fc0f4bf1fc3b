"""The vectorized columnar engine wrapped as an :class:`ExecutionBackend`.

Like the native adapter it owns a private engine, here a
:class:`~repro.engine.vector.VectorEngine`, over the database's tables, so
differential execution runs the row and vector engines side by side against
one database whatever engine the database itself is set to.
"""

from __future__ import annotations

from repro.engine.backends.native import NativeBackend
from repro.engine.database import Database


class VectorBackend(NativeBackend):
    """The vector engine over the reproduction's in-memory tables."""

    name = "vector"

    def _engine_for(self, database: Database):
        from repro.engine.vector import VectorEngine

        return VectorEngine(database)
