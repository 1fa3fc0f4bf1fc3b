"""Content-addressed artifact cache.

Completed task artifacts are pickled under ``<root>/<key[:2]>/<key>.pkl``
where ``key`` is the task's content hash, so a cache entry is valid for
exactly one (body, params, upstream-artifacts) combination and never goes
stale on a config change — a changed config simply hashes to a different
key.  An entry is two pickles back to back: a small ``{key, task}`` header,
then the artifact's own pickle, so an artifact that arrives already pickled
(a :class:`Pickled` from a pool worker) is written as it is, and a load
checks the key before it unpickles the artifact.  Writes are atomic (temp
file + ``os.replace``) so a crashed or concurrent run cannot leave a
half-written entry behind, and unreadable entries — a torn header, a torn
artifact or a mismatched key — are treated as misses and deleted rather
than propagated; the swallowed error class is recorded in
``corruption_kinds`` so operators can tell a torn write from a format drift.

Chaos hook: installing a :class:`~repro.resilience.faults.FaultPlan` as
``fault_plan`` makes ``store`` simulate a crash mid-write for scheduled
keys (a *torn* entry written without the atomic rename).  The next run's
load detects the corruption, recomputes, and repairs the entry — which is
exactly the recovery path ``chaos-bench`` asserts.
"""

from __future__ import annotations

import io
import os
import pickle
from pathlib import Path
from typing import Any

#: Everything unpickling hostile bytes can throw.  Deliberately concrete:
#: ``KeyboardInterrupt``/``SystemExit`` and genuine bugs must propagate.
CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    OSError,
    MemoryError,
)


class Pickled:
    """An artifact kept as its pickle until something needs the object.

    Pool workers return their artifacts in this form: the runtime's parent
    writes the bytes to the cache and forwards them to downstream workers
    without unpickling them.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    @classmethod
    def of(cls, artifact: Any) -> "Pickled":
        return cls(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self) -> Any:
        return pickle.loads(self.data)


class ArtifactCache:
    """Disk cache keyed by content hash; ``root=None`` disables it."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: Exception class name -> count, for corrupted entries.
        self.corruption_kinds: dict[str, int] = {}
        #: Optional FaultPlan; ``store`` consults site "cache" with the
        #: task name as identity.
        self.fault_plan = None
        #: Torn writes injected by the fault plan.
        self.tears = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, key: str) -> Path:
        if self.root is None:
            raise ValueError("cache is disabled")
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` exists on disk.

        A cheap existence probe (no unpickling, no hit/miss accounting) for
        callers that only need to know whether a start would be warm — a
        present-but-corrupt entry still resolves to a recompute at load time.
        """
        return self.root is not None and self.path_for(key).exists()

    def load(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, artifact)``; corrupted entries count as misses
        and are removed so the task is recomputed and the entry rewritten."""
        if self.root is None:
            return False, None
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return False, None
        try:
            data = path.read_bytes()
            stream = io.BytesIO(data)
            if pickle.load(stream)["key"] != key:
                raise ValueError("cache entry key mismatch")
            artifact = pickle.loads(memoryview(data)[stream.tell():])
        except CORRUPTION_ERRORS as exc:
            self.corrupt += 1
            self.misses += 1
            name = type(exc).__name__
            self.corruption_kinds[name] = self.corruption_kinds.get(name, 0) + 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, artifact

    def store(self, key: str, task_name: str, artifact: Any) -> int:
        """Write ``artifact`` (an object, or a :class:`Pickled` written as
        it is) under ``key``; returns the number of bytes written."""
        if self.root is None:
            return 0
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = pickle.dumps({"key": key, "task": task_name}, protocol=pickle.HIGHEST_PROTOCOL)
        if not isinstance(artifact, Pickled):
            artifact = Pickled.of(artifact)
        size = len(header) + len(artifact.data)
        if self.fault_plan is not None:
            if self.fault_plan.draw("cache", task_name, 0) == "cache-tear":
                # Simulated crash mid-write: a torn entry lands at the final
                # path with no atomic rename — the worst case a real crash
                # between write and replace could produce.
                self.tears += 1
                return path.write_bytes((header + artifact.data)[: max(1, size // 2)])
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(header)
            handle.write(artifact.data)
        os.replace(tmp, path)
        return size
