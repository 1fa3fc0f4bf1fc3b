"""The runtime: executes a :class:`~repro.runtime.graph.TaskGraph`.

``Runtime.run(graph, targets)`` materializes the requested artifacts:

1. targets are resolved depth-first, consulting the in-process memo and the
   disk cache by content hash — a cached task prunes its whole upstream
   subgraph (a warm ``tables 5`` never even loads the trained systems'
   inputs);
2. what remains is computed, either inline (``workers=1``) or fanned across
   a :class:`~concurrent.futures.ProcessPoolExecutor`, submitting every task
   whose dependencies are satisfied.

Because each task body is pure in (params, dependency artifacts), the
schedule cannot influence any artifact: parallel and sequential runs are
bit-identical.  Per-task wall time, cache hit/miss counters, retries and
injected faults are appended to ``Runtime.report`` (rendered by the CLI's
``--timings``).

Each artifact is pickled once, where it is made.  A pool worker returns its
artifact as a :class:`~repro.runtime.cache.Pickled`; the parent writes those
bytes to the cache as they are, memoizes them and forwards them unchanged to
downstream pool tasks, which unpickle them in the worker.  The parent
unpickles an artifact only when ``run`` returns it (a target is opened as
soon as it finishes, while the pool works on) or an inline task consumes
it, and then once, memoizing the object.

Resilience:

* transient task failures (:data:`~repro.resilience.faults.TRANSIENT_ERRORS`
  plus pool breakage) are retried per task under a
  :class:`~repro.resilience.RetryPolicy` — and since bodies are pure, a
  retried task recomputes the identical artifact;
* a dead worker process (``BrokenProcessPool``) is recovered by rebuilding
  the pool and resubmitting every interrupted task;
* ``task_timeout_s`` flags tasks that ran over budget and retries them
  (detection is post-hoc: a deterministic body that finishes is never
  killed mid-flight, so artifacts stay schedule-independent);
* a :class:`~repro.resilience.faults.FaultPlan` injects worker crashes
  (``os._exit`` in pool workers — exercising the *real* recovery path) and
  torn cache writes for ``chaos-bench``.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.resilience.clock import SYSTEM_CLOCK
from repro.resilience.faults import TRANSIENT_ERRORS, FaultPlan, raise_fault
from repro.resilience.retry import RetryPolicy
from repro.runtime.cache import ArtifactCache, Pickled
from repro.runtime.graph import TaskGraph


class TaskTimeoutError(ReproError):
    """A task body exceeded the runtime's per-task time budget."""

    kind = "task-timeout"


def resolve_fn(fn_path: str) -> Callable[[dict, dict], Any]:
    """Resolve a ``"module.path:function"`` task body."""
    module_name, sep, attr = fn_path.partition(":")
    if not sep or not attr:
        raise ValueError(f"task fn must look like 'module:function', got {fn_path!r}")
    return getattr(importlib.import_module(module_name), attr)


def execute_task(
    fn_path: str,
    params: dict,
    inputs: dict,
    inject: str | None = None,
    inject_mode: str = "raise",
    trace: dict | None = None,
) -> tuple[Any, float, list]:
    """Run one task body; module-level so worker processes can import it.

    Returns ``(artifact, seconds, spans)`` with the time measured where the
    work actually happened.  ``inject`` carries a scheduled fault kind
    decided by the parent: ``"worker-crash"`` in ``"exit"`` mode kills the
    hosting process outright (a pool worker dying for real), in ``"raise"``
    mode it raises — the inline-execution equivalent.

    ``trace`` carries the parent's span context across the process-pool
    boundary: ``{"name", "parent", "prefix"}``.  The worker records spans
    into a local tracer (ids prefixed so they cannot collide with the
    parent's) and ships them back for adoption; inline callers pass None
    and record through the ambient tracer directly.
    """
    if inject == "worker-crash" and inject_mode == "exit":
        os._exit(23)
    if inject is not None:
        raise_fault(inject, fn_path)
    if trace is None:
        start = SYSTEM_CLOCK.now()
        artifact = resolve_fn(fn_path)(params, inputs)
        return artifact, SYSTEM_CLOCK.now() - start, []

    from repro import obs
    from repro.obs.tracer import Tracer

    tracer = Tracer(id_prefix=trace["prefix"])
    previous = obs.set_tracer(tracer)
    try:
        with tracer.span(f"exec:{trace['name']}", parent=trace["parent"]):
            start = SYSTEM_CLOCK.now()
            artifact = resolve_fn(fn_path)(params, inputs)
            seconds = SYSTEM_CLOCK.now() - start
    finally:
        obs.set_tracer(previous)
    return artifact, seconds, tracer.finished()


def execute_pooled(
    fn_path: str,
    params: dict,
    inputs: dict,
    inject: str | None = None,
    trace: dict | None = None,
) -> tuple[Pickled, float, list]:
    """:func:`execute_task` in a pool worker: inputs forwarded as
    :class:`Pickled` are unpickled here, and the artifact goes back pickled
    so the parent can store and forward it without unpickling it."""
    inputs = {
        role: value.load() if isinstance(value, Pickled) else value
        for role, value in inputs.items()
    }
    artifact, seconds, spans = execute_task(fn_path, params, inputs, inject, "exit", trace)
    return Pickled.of(artifact), seconds, spans


@dataclass
class TaskRecord:
    """How one task was satisfied during a run."""

    name: str
    status: str  # "computed" | "hit" (disk cache) | "memo" (in-process)
    seconds: float
    key: str  # content hash
    retries: int = 0  # extra attempts spent before success
    faults: int = 0  # synthetic faults injected into this task


@dataclass
class RunReport:
    """Accumulated task records across every ``Runtime.run`` call."""

    records: list[TaskRecord] = field(default_factory=list)
    #: fault/failure kind -> times a task recovered from it via retry.
    recovered: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def computed(self) -> int:
        return self.count("computed")

    @property
    def cache_hits(self) -> int:
        return self.count("hit")

    @property
    def memoized(self) -> int:
        return self.count("memo")

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def faults_injected(self) -> int:
        return sum(r.faults for r in self.records)

    def task_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def all_cached(self) -> bool:
        """True when no task had to be computed (a fully warm run)."""
        return bool(self.records) and self.computed == 0

    def render(self) -> str:
        lines = ["== runtime report =="]
        width = max((len(r.name) for r in self.records), default=4)
        for record in sorted(self.records, key=lambda r: r.name):
            lines.append(
                f"{record.name:<{width}}  {record.key[:10]}  "
                f"{record.status:<8}  {record.seconds:8.3f}s  "
                f"retries={record.retries}  faults_injected={record.faults}"
            )
        lines.append(
            f"runtime: {len(self.records)} tasks | computed={self.computed} "
            f"cache-hits={self.cache_hits} memo={self.memoized} | "
            f"task-time {self.task_seconds():.2f}s | "
            f"retries={self.retries} faults_injected={self.faults_injected}"
        )
        return "\n".join(lines)


class Runtime:
    """Execution policy for a task graph: worker count, artifact cache,
    retry policy, optional per-task timeout and fault plan.

    One runtime can serve many suites and many ``run`` calls; completed
    artifacts stay memoized in-process by content hash.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | None = None,
        retry: RetryPolicy | None = None,
        task_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        clock=SYSTEM_CLOCK,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = ArtifactCache(cache_dir)
        self.retry = retry or RetryPolicy(max_attempts=3, base_delay_s=0.01, budget_s=1.0)
        self.task_timeout_s = task_timeout_s
        self.fault_plan = fault_plan
        self.cache.fault_plan = fault_plan
        self.clock = clock
        self.metrics = metrics or MetricsRegistry()
        #: Content hash -> artifact, or its :class:`Pickled` until the
        #: parent needs the object.
        self._memo: dict[str, Any] = {}
        self.report = RunReport()

    def probe(self, graph: TaskGraph, names: list[str] | tuple[str, ...]) -> dict[str, str]:
        """How each task would be satisfied right now, without computing.

        ``"memo"`` (already in-process), ``"cached"`` (disk artifact
        present) or ``"compute"``.  The serving loader uses this to report
        whether a start is warm before paying for :meth:`run`.
        """
        status: dict[str, str] = {}
        for name in dict.fromkeys(names):
            key = graph.content_hash(name)
            if key in self._memo:
                status[name] = "memo"
            elif self.cache.contains(key):
                status[name] = "cached"
            else:
                status[name] = "compute"
        return status

    def run(self, graph: TaskGraph, targets: list[str] | tuple[str, ...]) -> dict[str, Any]:
        """Materialize ``targets``; returns ``{task name: artifact}``."""
        targets = list(dict.fromkeys(targets))
        resolved: set[str] = set()
        pending: list[str] = []  # topological: deps are planned first
        planned: set[str] = set()
        tracer = get_tracer()

        def plan(name: str) -> None:
            if name in planned:
                return
            planned.add(name)
            key = graph.content_hash(name)
            if key in self._memo:
                resolved.add(name)
                self.report.records.append(TaskRecord(name, "memo", 0.0, key))
                self.metrics.inc("runtime.memo")
                if tracer.enabled:
                    tracer.end_span(tracer.start_span(f"task:{name}", status="memo"))
                return
            start = self.clock.now()
            hit, artifact = self.cache.load(key)
            if hit:
                self._memo[key] = artifact
                resolved.add(name)
                seconds = self.clock.now() - start
                self.report.records.append(TaskRecord(name, "hit", seconds, key))
                self.metrics.inc("runtime.cache_hits")
                if tracer.enabled:
                    span = tracer.start_span(f"task:{name}", status="hit")
                    load = tracer.start_span(
                        "cache.load", parent=span, task=name,
                        bytes=self.cache.path_for(key).stat().st_size,
                    )
                    span.start_s = load.start_s = start  # cover the load window
                    tracer.end_span(load)
                    tracer.end_span(span)
                return
            tracer.event("cache-miss", task=name)
            for dep in graph.task(name).dep_names():
                plan(dep)
            pending.append(name)

        with tracer.span("runtime.run", targets=",".join(targets)):
            for target in targets:
                plan(target)

            if pending:
                if self.workers == 1 or len(pending) == 1:
                    self._run_sequential(graph, pending, resolved)
                else:
                    self._run_parallel(graph, pending, resolved, set(targets))
            return {name: self._artifact(graph, name) for name in targets}

    # -- execution ------------------------------------------------------------

    def _artifact(self, graph: TaskGraph, name: str) -> Any:
        """A memoized artifact as an object, unpickled at most once."""
        key = graph.content_hash(name)
        artifact = self._memo[key]
        if isinstance(artifact, Pickled):
            with get_tracer().span("unpickle", task=name, bytes=len(artifact.data)):
                artifact = self._memo[key] = artifact.load()
        return artifact

    def _finish(
        self,
        graph: TaskGraph,
        name: str,
        artifact: Any,
        seconds: float,
        resolved: set[str],
        retries: int = 0,
        faults: int = 0,
    ) -> None:
        key = graph.content_hash(name)
        if self.cache.enabled:
            start = self.clock.now()
            with get_tracer().span("cache.store", task=name) as span:
                span.set_attr("bytes", self.cache.store(key, name, artifact))
            self.metrics.observe("runtime.cache_store_s", self.clock.now() - start)
        self._memo[key] = artifact
        resolved.add(name)
        self.report.records.append(
            TaskRecord(name, "computed", seconds, key, retries=retries, faults=faults)
        )
        self.metrics.inc("runtime.computed")
        self.metrics.observe("runtime.task_s", seconds)
        if retries:
            self.metrics.inc("runtime.retries", retries)
        if faults:
            self.metrics.inc("runtime.faults_injected", faults)

    def _inputs(self, graph: TaskGraph, name: str) -> dict:
        """Inline inputs: every dependency as an object."""
        return {role: self._artifact(graph, dep) for role, dep in graph.task(name).deps}

    def _forwarded(self, graph: TaskGraph, name: str) -> dict:
        """Pool inputs: every dependency as memoized, pickles left closed."""
        return {role: self._memo[graph.content_hash(dep)] for role, dep in graph.task(name).deps}

    def _draw_fault(self, name: str, attempt: int) -> str | None:
        if self.fault_plan is None:
            return None
        return self.fault_plan.draw("task", name, attempt)

    def _check_timeout(self, name: str, seconds: float) -> None:
        if self.task_timeout_s is not None and seconds > self.task_timeout_s:
            raise TaskTimeoutError(
                f"task {name!r} took {seconds:.2f}s "
                f"(budget {self.task_timeout_s:g}s)"
            )

    def _record_recovery(self, exc: BaseException) -> None:
        if isinstance(exc, BrokenProcessPool):
            kind = "worker-crash"  # the taxonomy name for a dead pool worker
        else:
            kind = getattr(exc, "kind", type(exc).__name__)
        self.report.recovered[kind] = self.report.recovered.get(kind, 0) + 1
        self.metrics.inc(f"runtime.recovered.{kind}")

    def _run_sequential(self, graph: TaskGraph, pending: list[str], resolved: set[str]) -> None:
        tracer = get_tracer()
        for name in pending:
            task = graph.task(name)
            attempt = 0
            faults = 0
            with tracer.span(f"task:{name}") as span:
                while True:
                    inject = self._draw_fault(name, attempt)
                    if inject is not None:
                        faults += 1
                        tracer.event("fault-injected", task=name, kind=inject)
                    try:
                        artifact, seconds, _spans = execute_task(
                            task.fn,
                            task.params,
                            self._inputs(graph, name),
                            inject=inject,
                            inject_mode="raise",
                        )
                        self._check_timeout(name, seconds)
                    except TRANSIENT_ERRORS + (TaskTimeoutError,) as exc:
                        if attempt + 1 >= self.retry.max_attempts:
                            raise
                        tracer.event(
                            "retry",
                            task=name,
                            attempt=attempt + 1,
                            kind=getattr(exc, "kind", type(exc).__name__),
                        )
                        self.clock.sleep(self.retry.delay(attempt, name))
                        self._record_recovery(exc)
                        attempt += 1
                        continue
                    span.set_attr("status", "computed")
                    span.set_attr("retries", attempt)
                    self._finish(
                        graph, name, artifact, seconds, resolved,
                        retries=attempt, faults=faults,
                    )
                    break

    def _run_parallel(
        self, graph: TaskGraph, pending: list[str], resolved: set[str], targets: set[str]
    ) -> None:
        remaining = list(pending)
        attempts = dict.fromkeys(pending, 0)
        faults = dict.fromkeys(pending, 0)
        in_flight: dict[str, Any] = {}  # name -> (future, submitted_at)
        # At most one task per worker is in flight, so a submitted task starts
        # at once: its span and its overdue clock never include queue wait.
        slots = min(self.workers, len(pending))
        pool = ProcessPoolExecutor(max_workers=slots)
        tracer = get_tracer()
        # One open span per task, spanning submit → final outcome (so retries
        # land inside it); worker-side exec spans are adopted as children.
        task_spans: dict[str, Any] = {}

        def launch() -> None:
            for name in list(remaining):
                if len(in_flight) >= slots:
                    return
                task = graph.task(name)
                if all(dep in resolved for dep in task.dep_names()):
                    inject = self._draw_fault(name, attempts[name])
                    if inject is not None:
                        faults[name] += 1
                    trace = None
                    if tracer.enabled:
                        if name not in task_spans:
                            task_spans[name] = tracer.start_span(f"task:{name}")
                        if inject is not None:
                            tracer.add_event(
                                task_spans[name], "fault-injected",
                                task=name, kind=inject,
                            )
                        # The attempt number makes the worker id prefix
                        # unique across resubmissions of the same task.
                        trace = {
                            "name": name,
                            "parent": task_spans[name].span_id,
                            "prefix": f"{name}@{attempts[name]}:",
                        }
                    in_flight[name] = (
                        pool.submit(
                            execute_pooled,
                            task.fn,
                            task.params,
                            self._forwarded(graph, name),
                            inject,
                            trace,
                        ),
                        self.clock.now(),
                    )
                    remaining.remove(name)

        def close_span(name: str, status: str) -> None:
            span = task_spans.pop(name, None)
            if span is not None:
                span.set_attr("status", status)
                span.set_attr("retries", attempts[name])
                tracer.end_span(span, status="error" if status == "failed" else "ok")

        def recycle_pool(broken_exc: BaseException) -> None:
            """A worker died (or a task ran over budget): rebuild the pool
            and resubmit every interrupted task, bounded by the retry
            policy so an always-crashing task cannot loop forever."""
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=slots)
            for name in list(in_flight):
                in_flight.pop(name)
                attempts[name] += 1
                if attempts[name] >= self.retry.max_attempts:
                    close_span(name, "failed")
                    raise broken_exc
                if name in task_spans:
                    tracer.add_event(
                        task_spans[name], "retry",
                        task=name, attempt=attempts[name],
                        kind=getattr(broken_exc, "kind", type(broken_exc).__name__),
                    )
                self._record_recovery(broken_exc)
                remaining.append(name)

        try:
            launch()
            wait_timeout = 0.05 if self.task_timeout_s is not None else None
            while in_flight or remaining:
                done, _ = wait(
                    {future for future, _ in in_flight.values()},
                    return_when=FIRST_COMPLETED,
                    timeout=wait_timeout,
                )
                broken: BaseException | None = None
                finished: list[str] = []
                for name in [n for n, (f, _) in in_flight.items() if f in done]:
                    future, _ = in_flight.pop(name)
                    try:
                        artifact, seconds, worker_spans = future.result()
                        self._check_timeout(name, seconds)
                    except BrokenProcessPool as exc:
                        # The pool is unusable for everyone; handle once,
                        # outside this loop, with this task included.
                        in_flight[name] = (future, 0.0)
                        broken = exc
                        break
                    except TRANSIENT_ERRORS + (TaskTimeoutError,) as exc:
                        attempts[name] += 1
                        if attempts[name] >= self.retry.max_attempts:
                            close_span(name, "failed")
                            raise
                        if name in task_spans:
                            tracer.add_event(
                                task_spans[name], "retry",
                                task=name, attempt=attempts[name],
                                kind=getattr(exc, "kind", type(exc).__name__),
                            )
                        self.clock.sleep(self.retry.delay(attempts[name] - 1, name))
                        self._record_recovery(exc)
                        remaining.append(name)
                        continue
                    tracer.adopt(worker_spans)
                    close_span(name, "computed")
                    self._finish(
                        graph, name, artifact, seconds, resolved,
                        retries=attempts[name], faults=faults[name],
                    )
                    finished.append(name)
                if broken is not None:
                    recycle_pool(broken)
                elif self.task_timeout_s is not None:
                    now = self.clock.now()
                    overdue = [
                        name
                        for name, (future, submitted) in in_flight.items()
                        if not future.done() and now - submitted > self.task_timeout_s
                    ]
                    if overdue:
                        # Can't reclaim a busy worker politely: recycle the
                        # pool and retry everything that was in flight.
                        recycle_pool(
                            TaskTimeoutError(
                                f"task(s) {overdue!r} exceeded the "
                                f"{self.task_timeout_s:g}s budget"
                            )
                        )
                launch()
                # Open finished targets now, while the pool runs what
                # launch() submitted, not all at once after the last task.
                for name in finished:
                    if name in targets:
                        self._artifact(graph, name)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
