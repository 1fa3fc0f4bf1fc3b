"""Parallel task-graph runtime with a content-addressed artifact cache.

Generic substrate: :class:`TaskGraph` declares the work, :class:`Runtime`
executes it (inline or across worker processes) and :class:`ArtifactCache`
persists completed artifacts by content hash.  The concrete benchmark graph
lives in :mod:`repro.experiments.tasks`.
"""

from repro.runtime.cache import CORRUPTION_ERRORS, ArtifactCache, Pickled
from repro.runtime.graph import GRAPH_FORMAT, Task, TaskGraph, derive_seed
from repro.runtime.scheduler import (
    RunReport,
    Runtime,
    TaskRecord,
    TaskTimeoutError,
    execute_task,
)

__all__ = [
    "ArtifactCache",
    "CORRUPTION_ERRORS",
    "GRAPH_FORMAT",
    "Pickled",
    "Task",
    "TaskGraph",
    "derive_seed",
    "Runtime",
    "RunReport",
    "TaskRecord",
    "TaskTimeoutError",
    "execute_task",
]
