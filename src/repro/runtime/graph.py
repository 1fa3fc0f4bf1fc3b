"""Deterministic task graph over benchmark artifacts.

Every artifact the experiment harness consumes (a built domain, the
MiniSpider corpus, a trained system, an evaluated Table-5 cell) is a node in
a :class:`TaskGraph`.  A task declares

* a **body** — a module-level function named by ``"module.path:function"``
  so worker processes can resolve it by import,
* **params** — the JSON-serializable slice of the experiment config it
  actually reads (nothing else may influence its output),
* **deps** — named upstream tasks whose artifacts are passed to the body,
* and, for stochastic tasks, a **derived seed** inside ``params``
  (see :func:`derive_seed`) so no two tasks share an RNG stream and no task
  depends on schedule order.

The **content hash** of a task is a SHA-256 over its body name, params and
the hashes of its dependencies.  Identical hash ⇒ identical artifact, which
is what makes the disk cache safe and parallel/sequential schedules
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: Bump to invalidate every content hash (and therefore every cache entry)
#: when the artifact format or task semantics change incompatibly.
#: 2: trained-system artifacts carry the schema-linking memo (serving).
#: 3: the memo is a ``BoundedLRU`` and learned lexicons fill their counters
#:    in sorted order, so most_common ties no longer follow the hash seed.
#: 4: a pickled ``Database`` carries its data and engine name, not its
#:    executor, and starts on the vector engine.
#: 5: a cache entry is a ``{key, task}`` header pickle followed by the
#:    artifact's own pickle.
#: 6: learned lexicons count in plain dicts, not ``Counter``s, and a trained
#:    system carries no schema linkers (they are built on first use).
GRAPH_FORMAT = 6


def derive_seed(base_seed: int, task_name: str) -> int:
    """A stable per-task RNG seed: independent tasks get independent streams,
    and the seed depends only on (base seed, task name) — never on schedule."""
    digest = hashlib.sha256(f"{base_seed}:{task_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Task:
    """One node of the graph: a named, pure, picklable unit of work."""

    name: str
    fn: str  # "module.path:function", resolved in the executing process
    params: dict = field(default_factory=dict)
    #: (role, upstream task name) pairs; the body receives ``{role: artifact}``.
    deps: tuple[tuple[str, str], ...] = ()

    def dep_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.deps)


class TaskGraph:
    """A DAG of :class:`Task` nodes with content-addressed hashing.

    Tasks must be added dependencies-first, which makes insertion order a
    topological order and guarantees the graph is acyclic by construction.
    """

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}
        self._hashes: dict[str, str] = {}

    def add(self, task: Task) -> None:
        if task.name in self._tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        for role, dep in task.deps:
            if dep not in self._tasks:
                raise ValueError(
                    f"task {task.name!r} depends on unknown task {dep!r} "
                    f"(role {role!r}); add dependencies first"
                )
        self._tasks[task.name] = task

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise KeyError(f"unknown task {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._tasks)

    def content_hash(self, name: str) -> str:
        """SHA-256 of the task's body, params and upstream hashes (memoized)."""
        if name not in self._hashes:
            task = self.task(name)
            payload = {
                "format": GRAPH_FORMAT,
                "fn": task.fn,
                "params": task.params,
                "deps": {role: self.content_hash(dep) for role, dep in task.deps},
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._hashes[name] = hashlib.sha256(blob.encode()).hexdigest()
        return self._hashes[name]

    def closure(self, targets: list[str] | tuple[str, ...]) -> list[str]:
        """All tasks the targets transitively need, in topological order."""
        needed: set[str] = set()

        def visit(name: str) -> None:
            if name in needed:
                return
            needed.add(name)
            for dep in self.task(name).dep_names():
                visit(dep)

        for target in targets:
            visit(target)
        # Insertion order is topological (deps are added first).
        return [name for name in self._tasks if name in needed]
