"""Tests for the unified observability subsystem (``repro.obs``).

Covers the tracer/span model, the metrics registry and its shared latency
bucket layout, the exporters and the span-log validator — plus the
integration guarantees the subsystem makes to the rest of the stack:

* span-tree integrity across the runtime's process-pool boundary
  (workers > 1) and across serving's asyncio interleavings (hypothesis);
* artifact determinism: tracing on vs off yields byte-identical splits;
* near-zero overhead when tracing is off (the default).
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    LATENCY_BUCKET_BOUNDS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    flame_summary,
    geometric_bounds,
    validate_span_log,
    write_chrome_trace,
    write_span_log,
)
from repro.resilience.clock import FakeClock
from repro.runtime import Runtime, Task, TaskGraph
from repro.serving import DomainBackend, InferenceServer, ServerConfig
from repro.serving.metrics import STAGES, LatencyHistogram, ServerMetrics

# -- toy task bodies (module-level so worker processes can import them) --------


def traced_emit(params, inputs):
    """A task body that records its own spans (to cross the pool boundary)."""
    tracer = obs.get_tracer()
    with tracer.span("toy.work", value=params["value"]):
        with tracer.span("toy.inner"):
            pass
    return params["value"]


def nap(params, inputs):
    time.sleep(params["seconds"])
    return params["value"]


def traced_join(params, inputs):
    tracer = obs.get_tracer()
    with tracer.span("toy.work", value="join"):
        return "+".join(inputs[role] for role in sorted(inputs))


def _toy_graph():
    graph = TaskGraph()
    graph.add(Task("a", "tests.test_obs:traced_emit", {"value": "a"}))
    graph.add(Task("b", "tests.test_obs:traced_emit", {"value": "b"}))
    graph.add(
        Task(
            "ab",
            "tests.test_obs:traced_join",
            {},
            deps=(("left", "a"), ("right", "b")),
        )
    )
    return graph


def _by_name(spans, name):
    return [span for span in spans if span.name == name]


def _assert_forest(spans):
    """Every span id unique; every parent id resolves inside the forest."""
    ids = [span.span_id for span in spans]
    assert len(ids) == len(set(ids))
    id_set = set(ids)
    for span in spans:
        assert span.parent_id is None or span.parent_id in id_set


def _max_depth(spans):
    by_id = {span.span_id: span for span in spans}

    def depth(span):
        level = 1
        while span.parent_id is not None and span.parent_id in by_id:
            span = by_id[span.parent_id]
            level += 1
        return level

    return max(depth(span) for span in spans) if spans else 0


# -- tracer and span model ------------------------------------------------------


def test_span_tree_nesting_error_status_and_events():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer", kind="test") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            tracer.event("milestone", n=1)
            clock.advance(0.5)
        assert tracer.current() is outer
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert inner.duration_s == pytest.approx(0.5)
    assert outer.duration_s == pytest.approx(1.5)
    assert [event.name for event in inner.events] == ["milestone"]
    assert outer.attrs == {"kind": "test"}

    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    failing = _by_name(tracer.finished(), "failing")[0]
    assert failing.status == "error"
    assert failing.attrs["error"] == "ValueError"


def test_span_ids_are_counters_with_prefix_and_no_rng():
    state = random.getstate()
    tracer = Tracer(id_prefix="w1:")
    first = tracer.start_span("x")
    second = tracer.start_span("y")
    assert (first.span_id, second.span_id) == ("w1:1", "w1:2")
    # Opening spans must not consume any RNG stream.
    assert random.getstate() == state


def test_null_tracer_is_a_constant_noop():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.span("x") is NULL_SPAN
    assert NULL_TRACER.start_span("x") is NULL_SPAN
    NULL_TRACER.end_span(NULL_SPAN)
    NULL_TRACER.event("e", a=1)
    NULL_TRACER.add_event(NULL_SPAN, "e")
    assert NULL_TRACER.finished() == []
    with NULL_SPAN as span:
        span.set_attr("k", "v")  # absorbed
    assert obs.get_tracer() is NULL_TRACER  # off by default


def test_use_tracer_installs_and_restores():
    tracer = Tracer()
    with obs.use_tracer(tracer) as active:
        assert active is tracer
        assert obs.get_tracer() is tracer
    assert obs.get_tracer() is NULL_TRACER


# -- metrics registry -----------------------------------------------------------


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("runs")
    registry.inc("runs", 2)
    registry.set_gauge("depth", 4.0)
    registry.observe("latency", 0.010)
    registry.observe("latency", 0.020)
    assert registry.counter("runs").value == 3
    assert registry.gauge("depth").value == 4.0
    histogram = registry.histogram("latency")
    assert histogram.count == 2
    assert histogram.mean == pytest.approx(0.015)
    assert 0.010 <= histogram.quantile(0.5) <= 0.020
    snapshot = registry.snapshot()
    assert snapshot["runs"] == {"kind": "counter", "value": 3}
    assert snapshot["latency"]["kind"] == "histogram"
    # create-or-get: same instrument, kind mismatch rejected.
    assert registry.counter("runs") is registry.counter("runs")
    with pytest.raises(TypeError):
        registry.gauge("runs")


def test_serving_histograms_share_the_repo_bucket_layout():
    # One definition: serving's LatencyHistogram uses the repo-wide bounds.
    assert LatencyHistogram().bounds == LATENCY_BUCKET_BOUNDS
    assert LATENCY_BUCKET_BOUNDS == geometric_bounds(0.00005, 1.5, 48)
    metrics = ServerMetrics()
    for stage in STAGES:
        assert metrics.histograms[stage].bounds == LATENCY_BUCKET_BOUNDS
    # ServerMetrics instruments live in a unified registry under serving.*.
    metrics.count("served")
    metrics.observe("total", 0.005)
    names = metrics.registry.names()
    assert "serving.served" in names
    assert "serving.latency.total" in names
    assert metrics.registry.snapshot()["serving.served"]["value"] == 1


# -- exporters ------------------------------------------------------------------


def _sample_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root", run="r1"):
        clock.advance(0.2)
        with tracer.span("child"):
            tracer.event("tick", n=1)
            clock.advance(0.1)
        clock.advance(0.05)
    return tracer.finished()


def test_chrome_trace_document_shape():
    spans = _sample_spans()
    doc = chrome_trace(spans)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert metadata and metadata[0]["name"] == "thread_name"
    assert {e["name"] for e in complete} == {"root", "child"}
    child = next(e for e in complete if e["name"] == "child")
    assert child["dur"] == pytest.approx(0.1 * 1e6)
    assert child["args"]["parent_id"] is not None
    assert [e["name"] for e in instants] == ["tick"]
    # The whole document is JSON-serializable as-is.
    json.dumps(doc)


def test_span_log_roundtrip_and_validation(tmp_path):
    spans = _sample_spans()
    path = write_span_log(spans, tmp_path / "trace.spans.jsonl")
    assert validate_span_log(path) == len(spans)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["root", "child"]  # start order


def test_span_log_validator_rejects_malformed(tmp_path):
    good = {
        "span_id": "1", "parent_id": None, "name": "x", "start_s": 0.0,
        "duration_s": 1.0, "status": "ok", "pid": 1, "thread": "main",
        "attrs": {}, "events": [],
    }

    def write(records):
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    with pytest.raises(ValueError, match="missing keys"):
        validate_span_log(write([{k: v for k, v in good.items() if k != "status"}]))
    with pytest.raises(ValueError, match="duplicate span_id"):
        validate_span_log(write([good, good]))
    with pytest.raises(ValueError, match="not in log"):
        validate_span_log(write([dict(good, parent_id="ghost")]))
    with pytest.raises(ValueError, match="status"):
        validate_span_log(write([dict(good, status="maybe")]))
    with pytest.raises(ValueError, match="non-negative"):
        validate_span_log(write([dict(good, duration_s=-1.0)]))


def test_flame_summary_aggregates_by_path():
    spans = _sample_spans() + _sample_spans()
    rendered = flame_summary(spans)
    assert "root" in rendered and "child" in rendered
    lines = rendered.splitlines()
    root_line = next(line for line in lines if line.startswith("root"))
    assert " 2 " in root_line  # both roots folded into one row


# -- runtime integration: span trees across the pool boundary -------------------


def test_runtime_sequential_spans_and_cache_hit_spans(tmp_path):
    tracer = Tracer()
    with obs.use_tracer(tracer):
        runtime = Runtime(workers=1, cache_dir=str(tmp_path / "cache"))
        runtime.run(_toy_graph(), ["ab"])
    spans = tracer.finished()
    _assert_forest(spans)
    run_span = _by_name(spans, "runtime.run")[0]
    task_spans = {s.name: s for s in spans if s.name.startswith("task:")}
    assert set(task_spans) == {"task:a", "task:b", "task:ab"}
    for span in task_spans.values():
        assert span.parent_id == run_span.span_id
        assert span.attrs["status"] == "computed"
    # Toy bodies' spans nest under their task spans (inline execution).
    for work in _by_name(spans, "toy.work"):
        assert work.parent_id in {s.span_id for s in task_spans.values()}
    assert _max_depth(spans) >= 4  # run -> task -> toy.work -> toy.inner
    assert runtime.metrics.counter("runtime.computed").value == 3

    # A warm second run records cache-hit task spans (and no toy spans).
    hit_tracer = Tracer()
    with obs.use_tracer(hit_tracer):
        Runtime(workers=1, cache_dir=str(tmp_path / "cache")).run(
            _toy_graph(), ["ab"]
        )
    hit_spans = hit_tracer.finished()
    _assert_forest(hit_spans)
    assert not _by_name(hit_spans, "toy.work")
    hits = [s for s in hit_spans if s.name.startswith("task:")]
    assert hits and all(s.attrs["status"] == "hit" for s in hits)


def test_runtime_parallel_span_tree_crosses_process_pool(tmp_path):
    tracer = Tracer()
    with obs.use_tracer(tracer):
        runtime = Runtime(workers=2, cache_dir=str(tmp_path / "cache"))
        results = runtime.run(_toy_graph(), ["ab"])
    assert results["ab"] == "a+b"
    spans = tracer.finished()
    _assert_forest(spans)
    task_spans = {s.name: s for s in spans if s.name.startswith("task:")}
    assert set(task_spans) == {"task:a", "task:b", "task:ab"}
    # Each task has an adopted worker-side exec span parented to it...
    exec_spans = {s.name: s for s in _by_name(spans, "exec:a")
                  + _by_name(spans, "exec:b") + _by_name(spans, "exec:ab")}
    assert set(exec_spans) == {"exec:a", "exec:b", "exec:ab"}
    for name, span in exec_spans.items():
        assert span.parent_id == task_spans[f"task:{name[5:]}"].span_id
    # ...and the bodies' own spans rode back across the pool boundary,
    # nested under the exec spans (ids prefixed, so no collisions).
    works = _by_name(spans, "toy.work")
    assert len(works) == 3
    exec_ids = {s.span_id for s in exec_spans.values()}
    assert all(w.parent_id in exec_ids for w in works)
    assert _max_depth(spans) >= 4
    # Worker spans carry the worker process's pid, not the parent's.
    import os

    assert any(w.pid != os.getpid() for w in works)


def test_parallel_task_spans_exclude_pool_queue_wait():
    """A task's span opens when a pool worker is free to run it: four
    independent 0.4 s tasks on two workers, and no task span outgrows its
    exec span by the 0.4 s the last two would have queued."""
    graph = TaskGraph()
    names = [f"nap{i}" for i in range(4)]
    for i, name in enumerate(names):
        graph.add(Task(name, "tests.test_obs:nap", {"value": i, "seconds": 0.4}))
    tracer = Tracer()
    with obs.use_tracer(tracer):
        assert Runtime(workers=2).run(graph, names) == dict(zip(names, range(4)))
    spans = tracer.finished()
    for name in names:
        (task,) = _by_name(spans, f"task:{name}")
        (work,) = _by_name(spans, f"exec:{name}")
        assert task.duration_s <= work.duration_s + 0.25, name


# -- serving integration: asyncio span trees ------------------------------------


class EchoSystem:
    def link(self, question, db_id):
        return None

    def predict(self, question, db_id):
        return f"SELECT '{question}' FROM {db_id}"

    def predict_batch(self, questions, db_id):
        return [self.predict(question, db_id) for question in questions]


async def _serve(questions, max_batch=4, cache_capacity=8):
    backend = DomainBackend(name="demo", system=EchoSystem())
    config = ServerConfig(max_batch=max_batch, max_wait_ms=1.0,
                          cache_capacity=cache_capacity)
    async with InferenceServer([backend], config) as server:
        return await asyncio.gather(
            *(server.submit(question, "demo") for question in questions)
        )


def test_serving_request_span_tree():
    tracer = Tracer()
    with obs.use_tracer(tracer):
        results = asyncio.run(_serve(["q1", "q2", "q1", "q3"]))
    assert all(result.ok for result in results)
    spans = tracer.finished()
    _assert_forest(spans)
    requests = _by_name(spans, "serve.request")
    assert len(requests) == 4
    request_ids = {s.span_id for s in requests}
    queues = _by_name(spans, "serve.queue")
    # Non-cached requests each waited in the queue under their request span.
    assert queues and all(q.parent_id in request_ids for q in queues)
    batches = _by_name(spans, "serve.batch")
    assert batches
    batch_ids = {s.span_id for s in batches}
    assert all(s.parent_id in batch_ids for s in _by_name(spans, "serve.link"))
    predicts = _by_name(spans, "serve.predict")
    assert predicts and all(s.parent_id in batch_ids for s in predicts)
    statuses = {s.attrs.get("status") for s in requests}
    assert statuses == {"ok"}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    order=st.permutations(["a", "b", "c", "a", "b"]),
    max_batch=st.integers(min_value=1, max_value=4),
)
def test_serving_span_forest_valid_under_any_interleaving(order, max_batch):
    """Whatever the batch policy and arrival order, the span forest stays
    well-formed: unique ids, resolvable parents, one queue span per
    enqueued request."""
    tracer = Tracer()
    with obs.use_tracer(tracer):
        results = asyncio.run(_serve(list(order), max_batch=max_batch,
                                     cache_capacity=0))
    assert all(result.ok for result in results)
    spans = tracer.finished()
    _assert_forest(spans)
    requests = _by_name(spans, "serve.request")
    queues = _by_name(spans, "serve.queue")
    assert len(requests) == len(order)
    assert len(queues) == len(order)  # cache off: every request queued
    parents = {q.parent_id for q in queues}
    assert parents == {s.span_id for s in requests}


# -- determinism and overhead ---------------------------------------------------


def _augment_fingerprint(tracer):
    """Run a small pipeline under ``tracer``; returns (fingerprint, wall_s)."""
    from repro import adapters
    from repro.llm.models import GPT3_PROFILE, make_model
    from repro.synthesis import augment_domain

    domain = adapters.get_adapter("cordis").build(scale=0.15)
    with obs.use_tracer(tracer):
        started = time.perf_counter()
        split = augment_domain(
            domain,
            target_queries=20,
            seed=11,
            model=make_model(GPT3_PROFILE, seed=11),
            rng=random.Random(11),
        )
        wall_s = time.perf_counter() - started
    blob = json.dumps([pair.to_dict() for pair in split.pairs], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), wall_s


def test_artifacts_identical_with_tracing_on_and_off():
    """The determinism contract: tracing must not move a single byte."""
    fp_off, _ = _augment_fingerprint(NULL_TRACER)
    fp_on, _ = _augment_fingerprint(Tracer())
    assert fp_on == fp_off


class _CountingNullTracer(NullTracer):
    """Counts every tracer touch an off-by-default run performs."""

    def __init__(self):
        self.calls = 0

    def span(self, name, parent=None, **attrs):
        self.calls += 1
        return NULL_SPAN

    def start_span(self, name, parent=None, **attrs):
        self.calls += 1
        return NULL_SPAN

    def end_span(self, span, status=None):
        self.calls += 1

    def event(self, name, **attrs):
        self.calls += 1

    def add_event(self, span, name, **attrs):
        self.calls += 1


def test_disabled_tracer_overhead_is_negligible():
    """Guard: with tracing off, instrumentation costs < 2% of a pipeline run.

    Counts the actual no-op tracer touches of a representative workload,
    microbenchmarks the per-touch cost of the null tracer, and bounds the
    product — immune to machine-speed flakiness, unlike comparing two walls.
    """
    counting = _CountingNullTracer()
    _, wall_s = _augment_fingerprint(counting)
    assert counting.calls > 0  # the workload is actually instrumented

    n = 200_000
    started = time.perf_counter()
    for _ in range(n):
        with NULL_TRACER.span("x"):
            pass
    per_call_s = (time.perf_counter() - started) / n

    overhead_s = counting.calls * per_call_s
    assert overhead_s < 0.02 * wall_s, (
        f"{counting.calls} no-op tracer touches x {per_call_s * 1e9:.0f} ns "
        f"= {overhead_s * 1e3:.2f} ms >= 2% of {wall_s:.2f} s"
    )


def test_engine_query_spans_carry_row_attrs(mini_db):
    # A row-engine copy: the session-scoped fixture stays on its own engine.
    database = copy.deepcopy(mini_db)
    database.set_engine("native")
    tracer = Tracer()
    with obs.use_tracer(tracer):
        database.execute(
            "SELECT s.class, count(*) FROM specobj AS s JOIN photoobj AS p "
            "ON s.bestobjid = p.objid GROUP BY s.class"
        )
    queries = _by_name(tracer.finished(), "engine.query")
    assert len(queries) == 1  # recursion does not multiply spans
    attrs = queries[0].attrs
    assert attrs["rows"] == 3
    assert attrs["rows_scanned"] == 10  # 5 specobj + 5 photoobj
    assert attrs["rows_joined"] == 5


# -- benchmark report wiring ----------------------------------------------------


def test_serve_bench_report_carries_registry_and_trace_path():
    from repro.serving import LoadProfile, run_serve_bench

    backends = {"demo": DomainBackend(name="demo", system=EchoSystem())}
    questions = {"demo": ["q1", "q2"]}
    profile = LoadProfile(concurrency=2, repeat=2, seed=3)
    previous = obs.set_trace_path("traces/trace-test.json")
    try:
        report = run_serve_bench(backends, questions, profile, ServerConfig())
    finally:
        obs.set_trace_path(previous)
    assert report["trace_path"] == "traces/trace-test.json"
    for arm in ("unbatched", "batched"):
        registry = report["arms"][arm]["registry"]
        assert registry["serving.served"]["kind"] == "counter"
        assert registry["serving.served"]["value"] > 0
        assert registry["serving.latency.total"]["kind"] == "histogram"
    json.dumps(report)  # still JSON-serializable end to end


def test_resilience_stats_publish_into_registry():
    from repro.resilience.deadletter import ResilienceStats

    stats = ResilienceStats()
    stats.observe(3, {"rate-limit": 2}, 0.5)
    stats.observe(1, {}, 0.0)
    registry = MetricsRegistry()
    stats.publish(registry)
    snapshot = registry.snapshot()
    assert snapshot["resilience.retried_calls"]["value"] == 1
    assert snapshot["resilience.retries"]["value"] == 2
    assert snapshot["resilience.recovered.rate-limit"]["value"] == 2
    assert snapshot["resilience.backoff_s"]["value"] == pytest.approx(0.5)


# -- the trace CLI wrapper ------------------------------------------------------


def test_cli_trace_writes_artifacts_and_propagates_exit_code(tmp_path, capsys):
    from repro import cli

    # An invalid inner command: cheap, and exercises exit-code propagation.
    code = cli.main(
        ["trace", "--trace-dir", str(tmp_path), "tables", "9"]
    )
    assert code == 2
    trace_file = tmp_path / "trace-tables.json"
    span_log = tmp_path / "trace-tables.spans.jsonl"
    assert trace_file.exists() and span_log.exists()
    assert validate_span_log(span_log) >= 1
    doc = json.loads(trace_file.read_text())
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
    assert "command:tables" in names
    command = next(
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["name"] == "command:tables"
    )
    assert command["args"]["exit_code"] == 2
    # The tracer (and trace-path announcement) are fully restored.
    assert obs.get_tracer() is NULL_TRACER
    assert obs.current_trace_path() is None


def test_cli_trace_requires_a_command(capsys):
    from repro import cli

    assert cli.main(["trace"]) == 2
    assert cli.main(["trace", "trace"]) == 2
