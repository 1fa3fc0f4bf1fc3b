"""Process-backed replica decode: sidestep the GIL for CPU-bound models.

Thread-backed replicas share one interpreter, so N decode threads contend
on the GIL and fleet throughput stays flat no matter how many replicas the
router shards over (measured ~1.25x for 2 threads on the pure-Python
systems this repo trains).  Process isolation gives each replica slot a
dedicated **worker process** that holds a private clone of the domain
backends and runs ``predict_batch`` there; the parent's decode thread
only ships question strings out and SQL strings back.

The worker is created with the ``fork`` start method, so the clone —
produced by :func:`~repro.fleet.replica.clone_backends` *before* the fork
— reaches the child by memory inheritance, never by pickling: trained
systems stay exactly as built, and per-call IPC carries only strings.
Determinism is unchanged: the child's model copy is private and
``predict`` is pure, so answers remain byte-identical to the in-process
server's.

When ``fork`` is unavailable (non-POSIX platforms), callers fall back to
thread isolation — same answers, no parallel decode.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.serving.server import DomainBackend

#: The worker process's backends, installed by :func:`_worker_init`.
_WORKER_BACKENDS: dict[str, DomainBackend] = {}


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_init(backends: dict[str, DomainBackend]) -> None:
    global _WORKER_BACKENDS
    _WORKER_BACKENDS = backends
    # The served databases are shared with the parent, not cloned, and the
    # fork copied their engine locks in whatever state a parent thread (the
    # execute stage, say) held them: start on fresh engines.
    for backend in backends.values():
        if backend.database is not None:
            backend.database.reset_engine()


def _worker_decode(domain: str, questions: list[str]) -> list[str]:
    backend = _WORKER_BACKENDS[domain]
    return list(backend.system.predict_batch(list(questions), domain))


class ProcessSystem:
    """A system proxy whose ``predict_batch`` runs in the replica's worker.

    Runs on the server's decode thread, so the blocking ``.result()`` wait
    never touches the event loop.  ``link`` is a no-op here — the real
    system links (and memoizes) inside the worker process as part of its
    own ``predict_batch``.
    """

    _trained = True

    def __init__(self, pool: ProcessPoolExecutor, domain: str) -> None:
        self._pool = pool
        self._domain = domain

    def link(self, question, db_id):
        return None

    def predict(self, question: str, db_id: str) -> str:
        return self.predict_batch([question], db_id)[0]

    def predict_batch(self, questions: list[str], db_id: str) -> list[str]:
        return self._pool.submit(_worker_decode, db_id, list(questions)).result()


def process_backends(
    cloned: dict[str, DomainBackend],
) -> tuple[dict[str, DomainBackend], ProcessPoolExecutor]:
    """Wrap already-cloned backends behind a one-process decode pool.

    ``cloned`` must be replica-private copies: the fork hands the child its
    own view of them, and the parent keeps the fallback (degradation runs
    in the parent when the worker's decode fails) and the database (the
    execute stage stays in the parent).
    """
    pool = ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_worker_init,
        initargs=(cloned,),
    )
    wrapped = {
        name: DomainBackend(
            name=backend.name,
            system=ProcessSystem(pool, name),
            database=backend.database,
            fallback=backend.fallback,
        )
        for name, backend in cloned.items()
    }
    return wrapped, pool
