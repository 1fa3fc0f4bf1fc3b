"""Tests of the benchmark's own code.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfbench import stats, tracing
from perfbench.stream import build_stream


@pytest.fixture(scope="module")
def dev_pairs():
    from repro import adapters

    return {
        name: adapters.get_adapter(name).build(scale=0.3).dev.pairs
        for name in ("cordis", "oncomx")
    }


def test_stream_is_a_function_of_the_seed(dev_pairs):
    first = build_stream(dev_pairs, seed=7, n=100)
    assert first == build_stream(dev_pairs, seed=7, n=100)
    assert first != build_stream(dev_pairs, seed=8, n=100)


def test_stream_has_no_normalized_duplicates(dev_pairs):
    from repro.textutil import normalize_question

    with_variants = {
        # Case and whitespace variants of one question normalize alike.
        name: list(pairs) + [
            dataclasses.replace(pairs[0], question=f"  {pairs[0].question.upper()} ")
        ]
        for name, pairs in dev_pairs.items()
    }
    available = len({
        (name, normalize_question(pair.question))
        for name, pairs in dev_pairs.items() for pair in pairs
    })
    for seed in (1, 2, 3):
        stream = build_stream(with_variants, seed, n=available)
        keys = [(domain, normalize_question(q)) for domain, q in stream]
        assert len(keys) == len(set(keys)) == available
        with pytest.raises(ValueError):
            build_stream(with_variants, seed, n=available + 1)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=11, max_size=400))
def test_tail_leaves_ten_samples_beyond_it(values):
    value, percentile = stats.tail(values)
    ordered = sorted(values)
    rank = stats.tail_rank(len(values))
    assert ordered[rank - 1] == value
    assert len(values) - rank >= stats.TAIL_BEYOND
    # The next rank up would leave fewer than ten beyond it.
    assert len(values) - (rank + 1) < stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * rank / len(values))
    # Nearest-rank at the reported percentile reads the same sample.
    nearest = ordered[math.ceil(percentile / 100.0 * len(values) - 1e-9) - 1]
    assert nearest == value


def test_tail_of_a_short_run_is_its_median():
    assert stats.tail([5.0, 1.0, 3.0])[0] == 3.0


class _Clock:
    """A clock that advances by a fixed step per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        self.t += 1.0
        return self.t


class _Layers:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        return self.leaf()

    def leaf(self):
        return 1


def test_self_time_is_span_time_minus_child_coverage():
    originals = {name: _Layers.__dict__[name] for name in ("outer", "inner", "leaf")}
    log = tracing.SpanLog(clock=_Clock())
    log.wrap(_Layers, "outer", "runtime", "outer")
    log.wrap(_Layers, "inner", "nl2sql", "inner")
    log.wrap(_Layers, "leaf", "engine", "leaf")
    try:
        with log.root():
            assert _Layers().outer(3) == 3
    finally:
        log.unwrap_all()
    assert all(_Layers.__dict__[name] is fn for name, fn in originals.items())

    spans = log.spans
    duration = {s.span_id: s.duration_s for s in spans}
    expected: dict[str, float] = {}
    for span in spans:
        children = [c for c in spans if c.parent_id == span.span_id]
        own = duration[span.span_id] - sum(duration[c.span_id] for c in children)
        expected[span.attrs["layer"]] = expected.get(span.attrs["layer"], 0.0) + own
    assert tracing.self_times(spans) == expected
    # Self times over all layers, the root's included, add up to the root.
    (root,) = [s for s in spans if s.parent_id is None]
    assert sum(expected.values()) == root.duration_s
    assert root.attrs["layer"] == tracing.ROOT and expected[tracing.ROOT] > 0
    assert len([s for s in spans if s.name == "leaf"]) == 3
    assert all(v > 0 for v in expected.values())


def _span(span_id, parent, name, start, end, thread="decode", **attrs):
    from repro.obs import Span

    return Span(name=name, span_id=span_id, parent_id=parent, start_s=start, end_s=end,
                attrs={"layer": "engine", **attrs}, pid=1, thread=thread)


def test_outermost_skips_nested_spans_of_the_same_names():
    spans = [
        _span("1", None, "try_execute", 0.0, 10.0),
        _span("2", "1", "execute", 1.0, 9.0),
        _span("3", None, "execute", 11.0, 12.0),
        _span("4", "3", "other", 11.5, 11.7),
    ]
    seconds, count = tracing.inclusive(spans, ("execute", "try_execute"))
    assert (seconds, count) == (11.0, 2)


def test_request_coverage_adds_queue_wait_to_its_batch_spans():
    batch = {"db_id": "cordis", "questions": ["q1", "q2"]}
    spans = [
        # Batch 1 on one decode thread: links, predict, executions.
        _span("1", None, "link", 10.0, 10.5),
        _span("2", None, "link", 10.5, 11.0),
        _span("3", None, "predict_batch", 11.2, 13.0, **batch),
        _span("4", "3", "link", 11.3, 11.4),
        _span("5", None, "try_execute", 13.0, 13.5),
        _span("6", "5", "execute", 13.1, 13.4),
        _span("7", None, "try_execute", 13.5, 14.0),
        # Batch 2 on another thread, predict only.
        _span("8", None, "predict_batch", 20.0, 21.0, thread="other",
              db_id="sdss", questions=["q3"]),
    ]
    requests = [
        ("cordis", "q1", 9.0, 5.5),   # waits 1.0, batch spans cover 3.8
        ("cordis", "q2", 9.5, 5.0),   # waits 0.5
        ("sdss", "q3", 19.0, 2.5),    # waits 1.0, predict 1.0
        ("sdss", "q9", 19.0, 1.0),    # never decoded: covers nothing
    ]
    covered, total = tracing.request_coverage(spans, requests)
    assert total == pytest.approx(5.5 + 5.0 + 2.5 + 1.0)
    assert covered == pytest.approx((1.0 + 3.8) + (0.5 + 3.8) + (1.0 + 1.0))


def test_wrapper_records_spans_when_the_call_raises():
    class Boom:
        def go(self):
            raise KeyError("x")

    log = tracing.SpanLog()
    log.wrap(Boom, "go", "engine", "go")
    try:
        with pytest.raises(KeyError):
            Boom().go()
    finally:
        log.unwrap_all()
    assert [(s.name, s.status) for s in log.spans] == [("go", "error")]


def test_written_span_log_validates(tmp_path):
    log = tracing.SpanLog(clock=_Clock())
    log.wrap(_Layers, "inner", "nl2sql", "inner")
    log.wrap(_Layers, "leaf", "engine", "leaf")
    try:
        with log.root():
            _Layers().outer(2)
    finally:
        log.unwrap_all()
    assert log.write(tmp_path / "spans.jsonl") == len(log.spans) == 5
