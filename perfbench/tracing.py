"""Benchmark-side tracing: spans around the calls into each layer.

The traced run wraps public functions of the program from this file only —
the program itself is not changed.  Each call opens one span on a private
:class:`repro.obs.Tracer`, tagged with its layer; the tracer is never
installed process-wide, so the program's own instrumentation stays off and
only the wrapped boundaries are recorded.  Spans stay in memory with their
parent links and are written out once, when the traced phase ends.

A layer's *self time* is the summed duration of its spans minus the part
of each span its child spans cover.  A traced phase runs inside one root
span of its own (layer :data:`ROOT`): the root's self time is the time no
wrapped layer accounts for, and is reported as unattributed rather than
credited to a layer.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.obs import Tracer, validate_span_log, write_span_log
from repro.resilience.clock import SYSTEM_CLOCK

#: Layers, in report order (names follow the program's packages).
LAYERS = (
    "runtime", "experiments", "datasets", "synthesis", "llm", "engine", "nl2sql",
    "metrics",
)

#: Layer of the root span a traced phase runs in.
ROOT = "bench"

#: Tables whose rendering is timed per table.
TABLES = ("1", "2", "3", "4", "5")

#: Domain builders the workloads call (module, attribute).
DOMAIN_BUILDERS = ("repro.datasets.cordis", "repro.datasets.sdss", "repro.datasets.oncomx")


class SpanLog:
    """Wraps callables so each call records a span, and counts at the same
    points."""

    def __init__(self, clock=SYSTEM_CLOCK) -> None:
        self.tracer = Tracer(clock=clock)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    @property
    def spans(self) -> list:
        return self.tracer.finished()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter (hooks run on the serving decode threads too)."""
        with self._lock:
            self.counts[name] += amount

    def root(self):
        """The span a traced phase runs in (a context manager)."""
        return self.tracer.span("phase", layer=ROOT)

    def wrap(self, owner, attr: str, layer: str, name, before=None, after=None,
             attrs=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it; ``attrs(args)`` adds span attributes.
        ``before(args)`` runs ahead of the call; its return value is handed
        to ``after(args, result, token)``, which runs after a call that
        returned.  Both feed :meth:`count`.
        """
        original = getattr(owner, attr)
        tracer = self.tracer
        name_of = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            extra = attrs(args) if attrs is not None else {}
            with tracer.span(name_of(args), layer=layer, **extra):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        wrapper.__module__ = getattr(original, "__module__", None)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> int:
        """Write the finished spans as a JSONL span log; returns the number
        of spans the written log validates with."""
        write_span_log(self.spans, path)
        return validate_span_log(path)


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span durations minus their children's coverage.

    Children of one span ran on the span's thread while it was open, so
    they are disjoint and their durations sum to the covered part.
    """
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration_s
    result: dict[str, float] = defaultdict(float)
    for span in spans:
        result[span.attrs["layer"]] += span.duration_s - covered.get(span.span_id, 0.0)
    return dict(result)


def outermost(spans, names, by_id=None) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    names = set(names)
    if by_id is None:
        by_id = {span.span_id: span for span in spans}
    result = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            result.append(span)
    return result


def inclusive(spans, names, by_id=None) -> tuple[float, int]:
    """``(seconds, count)`` of the outermost spans named in ``names``."""
    top = outermost(spans, names, by_id)
    return sum(span.duration_s for span in top), len(top)


def batches(spans) -> list[tuple]:
    """The serving decode batches, as ``(predict_batch span, batch spans)``.

    The server's decode thread works one batch at a time: link calls for
    the batch's questions, one ``predict_batch``, then one execution per
    answer.  Those are the thread's top-level spans, so on each thread a
    batch is a ``predict_batch`` span with the run of link spans just
    before it and the run of execution spans just after it.
    """
    by_thread: dict[tuple, list] = defaultdict(list)
    for span in spans:
        if span.parent_id is None:
            by_thread[(span.pid, span.thread)].append(span)
    found = []
    for sequence in by_thread.values():
        sequence.sort(key=lambda s: s.start_s)
        for index, span in enumerate(sequence):
            if span.name != "predict_batch":
                continue
            first = index
            while first > 0 and sequence[first - 1].name == "link":
                first -= 1
            last = index
            while last + 1 < len(sequence) and sequence[last + 1].name in (
                "execute", "try_execute"
            ):
                last += 1
            found.append((span, sequence[first:last + 1]))
    return found


def request_coverage(spans, requests) -> tuple[float, float]:
    """``(covered, total)`` seconds over served requests.

    Each request is ``(domain, question, submitted, total)`` on the
    tracer's clock.  Its covered time is its queue wait (submission to the
    start of its batch) plus the durations of its batch's link, predict
    and execution spans; the rest of ``total`` (gaps inside the batch and
    the hand-back to the event loop) is not covered.  A request with no
    decoded batch covers nothing.
    """
    batch_of: dict[tuple[str, str], list] = {}
    for predict, members in batches(spans):
        for question in predict.attrs.get("questions", ()):
            batch_of[(predict.attrs["db_id"], question)] = members
    covered = total = 0.0
    for domain, question, submitted, seconds in requests:
        total += seconds
        members = batch_of.get((domain, question))
        if members:
            wait = max(0.0, members[0].start_s - submitted)
            covered += min(seconds, wait + sum(s.duration_s for s in members))
    return covered, total


def install(log: SpanLog) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import importlib

    from repro.engine.database import Database
    from repro.experiments import registry, tasks
    from repro.llm.base import SqlToNlModel
    from repro.metrics.execution import ExecutionAccuracy
    from repro.nl2sql.base import NLToSQLSystem
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.scheduler import Runtime
    from repro.synthesis.discriminator import Discriminator
    from repro.synthesis.generation import SqlGenerator
    from repro.synthesis.pipeline import AugmentationPipeline
    from repro.synthesis.translation import SqlToNlTranslator

    def stored(args, result, token):
        cache, key = args[0], args[1]
        if cache.enabled:
            log.count("cache_write_bytes", cache.path_for(key).stat().st_size)

    def pipeline_done(args, report, token):
        stats = report.generation
        if stats is not None:
            log.count("executed", stats.executed)
            log.count("accepted", stats.accepted)
            log.count("static_rejected", stats.static_rejected)

    def tried(args, result, token):
        if result is None:
            log.count("engine_errors")

    def batch(args, result, token):
        log.count("questions", len(args[1]))

    def single(args, result, token):
        log.count("questions")

    def memo_probe(args):
        # The link memo keeps no hit counter, so look (without touching it)
        # whether this call will be answered from it.
        system, question, db_id = args[0], args[1], args[2]
        memo = getattr(system, "_link_cache", None)
        return memo is not None and (db_id, question) in memo

    def linked(args, result, token):
        log.count("links")
        log.count("link_hits", bool(token))

    log.wrap(Runtime, "run", "runtime", "run")
    log.wrap(ArtifactCache, "load", "runtime", "cache.load")
    log.wrap(ArtifactCache, "store", "runtime", "cache.store", after=stored)
    log.wrap(registry, "render", "experiments", lambda args: f"render.table{args[0]}")
    for module in DOMAIN_BUILDERS:
        log.wrap(importlib.import_module(module), "build", "datasets", "domain.build")
    log.wrap(tasks, "build_corpus", "datasets", "corpus.build")
    log.wrap(AugmentationPipeline, "run", "synthesis", "pipeline", after=pipeline_done)
    log.wrap(SqlGenerator, "instantiate", "synthesis", "generate")
    log.wrap(SqlToNlTranslator, "translate_with_recovery", "synthesis", "translate")
    log.wrap(Discriminator, "select", "synthesis", "select")
    log.wrap(SqlToNlModel, "translate", "llm", "llm.translate")
    log.wrap(Database, "execute", "engine", "execute")
    log.wrap(Database, "try_execute", "engine", "try_execute", after=tried)
    log.wrap(NLToSQLSystem, "register_database", "nl2sql", "register")
    log.wrap(NLToSQLSystem, "train", "nl2sql", "train")
    log.wrap(NLToSQLSystem, "predict", "nl2sql", "predict", after=single)
    log.wrap(NLToSQLSystem, "predict_batch", "nl2sql", "predict_batch", after=batch,
             attrs=lambda args: {"db_id": args[2], "questions": list(args[1])})
    log.wrap(NLToSQLSystem, "link", "nl2sql", "link", before=memo_probe, after=linked)
    log.wrap(ExecutionAccuracy, "add", "metrics", "score")


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """The per-layer metrics one traced phase produced (zero when unused)."""
    spans = log.spans
    counts = log.counts
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)

    by_id = {span.span_id: span for span in spans}

    def seconds(*names):
        return inclusive(spans, names, by_id)

    metrics["runtime.cache_load_s"], _ = seconds("cache.load")
    metrics["runtime.cache_write_mb"] = counts["cache_write_bytes"] / 1e6
    for table in TABLES:
        metrics[f"experiments.render_s.table{table}"], _ = seconds(f"render.table{table}")
    metrics["synthesis.generate_s"], _ = seconds("generate")
    metrics["synthesis.translate_s"], _ = seconds("translate")
    metrics["synthesis.select_s"], _ = seconds("select")
    metrics["synthesis.executed"] = counts["executed"]
    metrics["synthesis.accepted"] = counts["accepted"]
    metrics["synthesis.static_rejected"] = counts["static_rejected"]
    metrics["synthesis.accept_ratio"] = (
        counts["accepted"] / counts["executed"] if counts["executed"] else 0.0
    )
    metrics["llm.translate_s"], calls = seconds("llm.translate")
    metrics["llm.calls"] = calls
    metrics["engine.execute_s"], queries = seconds("execute", "try_execute")
    metrics["engine.queries"] = queries
    metrics["engine.errors"] = counts["engine_errors"]
    metrics["nl2sql.train_s"], _ = seconds("train")
    metrics["nl2sql.predict_s"], _ = seconds("predict", "predict_batch")
    metrics["nl2sql.questions"] = counts["questions"]
    metrics["nl2sql.link_memo_hit_ratio"] = (
        counts["link_hits"] / counts["links"] if counts["links"] else 0.0
    )
    metrics["metrics.score_s"], scored = seconds("score")
    metrics["metrics.scored"] = scored
    return metrics
