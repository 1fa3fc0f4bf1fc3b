"""Tests for the async serving subsystem (repro.serving).

The load-bearing guarantee is byte-identity: for any interleaving of
requests and any batch size, the SQL a server returns equals what
``system.predict`` returns for the same question, one at a time.  That is
checked against a really-trained system explicitly for batch sizes 1/2/8
and property-based (hypothesis) over random streams and policies.
Robustness behaviours — admission rejection, timeouts, fallback
degradation — are exercised against stub systems with injected faults.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import SYSTEM_CLOCK, FakeClock
from repro.serving import (
    CachedResult,
    DomainBackend,
    InferenceServer,
    LatencyHistogram,
    LoadProfile,
    ResultCache,
    ServerConfig,
    TemplateFallback,
    build_stream,
    render_report,
    run_serve_bench,
    write_report,
)
from repro.spider import build_corpus


def run(coro):
    return asyncio.run(coro)


# -- stub systems ---------------------------------------------------------------


class EchoSystem:
    """Deterministic stand-in for a trained system.

    Decode latency is simulated through an injectable clock — a blocking
    :class:`FakeClock` parks the decode thread until the test ``advance``-s
    virtual time, so timeout tests wait for nothing real and cannot race.
    """

    _trained = True

    def __init__(self, delay_s: float = 0.0, clock=SYSTEM_CLOCK):
        self.delay_s = delay_s
        self.clock = clock
        self.batch_calls = 0

    def link(self, question, db_id):
        return None

    def predict(self, question, db_id):
        return f"SELECT '{question}' FROM {db_id}"

    def predict_batch(self, questions, db_id):
        self.batch_calls += 1
        if self.delay_s:
            self.clock.sleep(self.delay_s)
        return [self.predict(question, db_id) for question in questions]


class FaultySystem(EchoSystem):
    def predict(self, question, db_id):
        raise RuntimeError("decoder exploded")

    def predict_batch(self, questions, db_id):
        raise RuntimeError("batch decoder exploded")


class StubFallback:
    def predict(self, question, db_id):
        return f"SELECT count(*) FROM {db_id}"


def echo_server(**overrides) -> InferenceServer:
    defaults = dict(max_batch=4, max_wait_ms=1.0)
    defaults.update(overrides)
    backend = DomainBackend(name="demo", system=EchoSystem())
    return InferenceServer([backend], ServerConfig(**defaults))


# -- result cache ---------------------------------------------------------------


def test_result_cache_hit_miss_and_lru_eviction():
    cache = ResultCache(capacity=2)
    cache.put("d", "q1", CachedResult(sql="s1"))
    cache.put("d", "q2", CachedResult(sql="s2"))
    hit, entry = cache.get("d", "q1")  # refreshes q1's recency
    assert hit and entry.sql == "s1"
    cache.put("d", "q3", CachedResult(sql="s3"))  # evicts q2, not q1
    assert cache.get("d", "q2") == (False, None)
    assert cache.get("d", "q1")[0] and cache.get("d", "q3")[0]
    stats = cache.stats()
    assert stats["evictions"] == 1 and stats["size"] == 2
    assert stats["hits"] == 3 and stats["misses"] == 1


def test_result_cache_normalizes_question_key():
    cache = ResultCache(capacity=4)
    cache.put("d", "How  many STARS?", CachedResult(sql="s"))
    hit, entry = cache.get("d", "  how many stars?  ")
    assert hit and entry.sql == "s"
    assert cache.key("d", "A  b") == cache.key("d", "a B")


def test_result_cache_capacity_zero_disables():
    cache = ResultCache(capacity=0)
    cache.put("d", "q", CachedResult(sql="s"))
    assert cache.get("d", "q") == (False, None)
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0


# -- metrics --------------------------------------------------------------------


def test_latency_histogram_quantiles_bounded_by_observations():
    histogram = LatencyHistogram()
    for ms in (1, 2, 3, 4, 100):
        histogram.observe(ms / 1000.0)
    assert histogram.count == 5
    assert histogram.quantile(1.0) == pytest.approx(0.1)
    assert 0.0005 <= histogram.quantile(0.5) <= 0.01
    summary = histogram.summary()
    assert summary["max_ms"] == pytest.approx(100.0)
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


def test_latency_histogram_empty():
    histogram = LatencyHistogram()
    assert histogram.quantile(0.5) == 0.0
    assert histogram.summary()["count"] == 0


# -- server happy path ----------------------------------------------------------


def test_serves_concurrent_requests_and_batches():
    async def scenario():
        async with echo_server() as server:
            results = await asyncio.gather(
                *(server.submit(f"q{i}", "demo") for i in range(8))
            )
            return results, server.stats()

    results, stats = run(scenario())
    assert all(r.status == "ok" for r in results)
    assert [r.sql for r in results] == [
        f"SELECT 'q{i}' FROM demo" for i in range(8)
    ]
    assert stats.counters["served"] == 8
    assert stats.counters["failed"] == 0
    assert stats.latency_ms["total"]["count"] == 8


def test_cache_hit_on_repeat_question():
    async def scenario():
        async with echo_server() as server:
            first = await server.submit("how many stars?", "demo")
            second = await server.submit("How  MANY stars?", "demo")
            return first, second, server.stats()

    first, second, stats = run(scenario())
    assert not first.cached and second.cached
    assert second.sql == first.sql
    assert stats.counters["cache_hits"] == 1
    assert stats.cache["hits"] == 1


def test_exact_duplicates_coalesce_into_one_decode():
    async def scenario():
        backend = DomainBackend(name="demo", system=EchoSystem())
        config = ServerConfig(max_batch=8, max_wait_ms=20.0, cache_capacity=0)
        async with InferenceServer([backend], config) as server:
            results = await asyncio.gather(
                *(server.submit("same question", "demo") for _ in range(6))
            )
            return results, server.stats()

    results, stats = run(scenario())
    assert all(r.sql == "SELECT 'same question' FROM demo" for r in results)
    assert stats.counters["coalesced"] >= 5
    assert stats.counters["cache_hits"] == 0  # cache was disabled


class RecordingSystem(EchoSystem):
    """Records every question that reached ``predict_batch``."""

    def __init__(self):
        super().__init__()
        self.decoded: list[str] = []

    def predict_batch(self, questions, db_id):
        self.decoded.extend(questions)
        return super().predict_batch(questions, db_id)


CASE_VARIANTS = [
    "how many stars?", "How many stars?", "HOW MANY STARS?",
    "how  many stars?", " How Many Stars? ", "how many STARS?",
]


@pytest.mark.parametrize("cache_capacity", (0, 64))
def test_concurrent_case_variants_single_flight(cache_capacity):
    """Cache on: one leader decodes and its followers share the answer.
    Cache off: no flights, every variant decodes as written."""
    system = RecordingSystem()

    async def scenario():
        backend = DomainBackend(name="demo", system=system)
        config = ServerConfig(
            max_batch=8, max_wait_ms=5.0, cache_capacity=cache_capacity
        )
        async with InferenceServer([backend], config) as server:
            results = await asyncio.gather(
                *(server.submit(question, "demo") for question in CASE_VARIANTS)
            )
            return results, server.stats()

    results, stats = run(scenario())
    assert all(r.status == "ok" for r in results)
    assert [r.question for r in results] == CASE_VARIANTS
    if cache_capacity:
        assert system.decoded == [CASE_VARIANTS[0]]
        leader, *followers = results
        assert not leader.single_flight
        assert all(r.single_flight and r.sql == leader.sql for r in followers)
        assert all(set(r.timings_ms) == {"total"} for r in followers)
        assert leader.batch_size == 1 and all(r.batch_size == 0 for r in followers)
        assert stats.counters["single_flight"] == len(CASE_VARIANTS) - 1
        assert stats.cache["singleflight_coalesced"] == len(CASE_VARIANTS) - 1
    else:
        assert sorted(system.decoded) == sorted(CASE_VARIANTS)
        assert [r.sql for r in results] == [
            f"SELECT '{question}' FROM demo" for question in CASE_VARIANTS
        ]
        assert not any(r.single_flight for r in results)
        assert stats.counters["single_flight"] == 0
    assert stats.counters["served"] == len(CASE_VARIANTS)
    assert stats.cache["inflight"] == 0


def test_timed_out_leader_hands_its_timeout_to_followers():
    clock = FakeClock(blocking=True)
    duplicates = 4

    async def scenario():
        backend = DomainBackend(
            name="demo", system=EchoSystem(delay_s=60.0, clock=clock)
        )
        config = ServerConfig(request_timeout_s=0.02)
        async with InferenceServer([backend], config) as server:
            results = await asyncio.gather(
                *(server.submit("slow question", "demo") for _ in range(duplicates))
            )
            stats = server.stats()
            clock.advance(120.0)  # release the parked decode thread
            return results, stats

    results, stats = run(scenario())
    assert all(r.status == "timeout" for r in results)
    assert all(r.error.kind == "timeout" for r in results)
    assert [r.single_flight for r in results] == [False] + [True] * (duplicates - 1)
    assert stats.counters["timeouts"] == duplicates
    assert stats.counters["single_flight"] == duplicates - 1
    assert clock.sleeps == [60.0]  # one decode for all of them


def test_unknown_domain_is_structured_failure():
    async def scenario():
        async with echo_server() as server:
            return await server.submit("q", "nope")

    result = run(scenario())
    assert result.status == "failed" and not result.ok
    assert result.error.kind == "unknown-domain"


def test_execute_attaches_rows(mini_db):
    class SqlSystem(EchoSystem):
        def predict(self, question, db_id):
            return "SELECT count(*) FROM photoobj"

    async def scenario():
        backend = DomainBackend(name="demo", system=SqlSystem(), database=mini_db)
        config = ServerConfig(execute=True)
        async with InferenceServer([backend], config) as server:
            return await server.submit("how many photo objects?", "demo")

    result = run(scenario())
    assert result.status == "ok"
    assert result.rows == ((5,),)


# -- robustness -----------------------------------------------------------------


def test_queue_full_rejected_explicitly():
    async def scenario():
        server = echo_server(queue_limit=2)  # workers deliberately not started
        waiting = [
            asyncio.ensure_future(server.submit(f"q{i}", "demo")) for i in range(2)
        ]
        await asyncio.sleep(0)  # let both enqueue
        rejected = await server.submit("q-extra", "demo")
        stats = server.stats()
        for task in waiting:
            task.cancel()
        await asyncio.gather(*waiting, return_exceptions=True)
        return rejected, stats

    rejected, stats = run(scenario())
    assert rejected.status == "rejected" and not rejected.ok
    assert rejected.error.kind == "rejected"
    assert "queue" in rejected.error.message
    assert stats.counters["rejected"] == 1
    assert stats.pending == 2


def test_request_timeout_is_structured():
    # A blocking fake clock parks the decode thread: the decode verifiably
    # cannot finish before the request times out, with no real sleeping.
    clock = FakeClock(blocking=True)

    async def scenario():
        backend = DomainBackend(
            name="demo", system=EchoSystem(delay_s=60.0, clock=clock)
        )
        config = ServerConfig(request_timeout_s=0.02, cache_capacity=0)
        async with InferenceServer([backend], config) as server:
            result = await server.submit("slow question", "demo")
            stats = server.stats()
            clock.advance(120.0)  # release the parked decode thread
            return result, stats

    result, stats = run(scenario())
    assert result.status == "timeout" and not result.ok
    assert result.error.kind == "timeout"
    assert stats.counters["timeouts"] == 1
    assert clock.sleeps == [60.0]


def test_primary_failure_degrades_to_fallback():
    async def scenario():
        backend = DomainBackend(
            name="demo", system=FaultySystem(), fallback=StubFallback()
        )
        async with InferenceServer([backend]) as server:
            result = await server.submit("anything", "demo")
            return result, server.stats()

    result, stats = run(scenario())
    assert result.status == "degraded" and result.ok
    assert result.sql == "SELECT count(*) FROM demo"
    assert result.error.kind == "degraded"
    assert stats.counters["degraded"] == 1
    assert stats.counters["served"] == 1


def test_degraded_answers_are_not_cached():
    async def scenario():
        backend = DomainBackend(
            name="demo", system=FaultySystem(), fallback=StubFallback()
        )
        async with InferenceServer([backend]) as server:
            await server.submit("q", "demo")
            second = await server.submit("q", "demo")
            return second, server.stats()

    second, stats = run(scenario())
    assert not second.cached
    assert stats.counters["degraded"] == 2


def test_primary_failure_without_fallback_fails():
    async def scenario():
        backend = DomainBackend(name="demo", system=FaultySystem())
        async with InferenceServer([backend]) as server:
            result = await server.submit("anything", "demo")
            return result, server.stats()

    result, stats = run(scenario())
    assert result.status == "failed" and not result.ok
    assert result.error.kind == "decode-failed"
    assert stats.counters["failed"] == 1


def test_breaker_opens_and_fast_fails_to_fallback():
    clock = FakeClock()
    calls = {"batch": 0, "single": 0}

    class CountingFaulty(EchoSystem):
        def predict(self, question, db_id):
            calls["single"] += 1
            raise RuntimeError("decoder exploded")

        def predict_batch(self, questions, db_id):
            calls["batch"] += 1
            raise RuntimeError("batch decoder exploded")

    async def scenario():
        backend = DomainBackend(
            name="demo", system=CountingFaulty(), fallback=StubFallback()
        )
        config = ServerConfig(
            cache_capacity=0, breaker_failures=2, breaker_reset_s=30.0
        )
        async with InferenceServer([backend], config, clock=clock) as server:
            # One request records two failures (batch, then per-question):
            # enough to trip a threshold-2 breaker.
            first = await server.submit("q1", "demo")
            snapshot_open = server.breaker_states()["demo"]
            before = dict(calls)
            # Open circuit: served by the fallback, primary never called.
            second = await server.submit("q2", "demo")
            after = dict(calls)
            # After the cooldown the breaker admits a probe; the primary
            # fails again, so the circuit re-opens.
            clock.advance(30.0)
            third = await server.submit("q3", "demo")
            return first, second, third, snapshot_open, before, after, server

    first, second, third, snapshot_open, before, after, server = run(scenario())
    assert first.status == "degraded"
    assert snapshot_open["state"] == "open" and snapshot_open["opened"] == 1
    assert second.status == "degraded" and second.sql == "SELECT count(*) FROM demo"
    assert after == before  # fast-fail: no primary call while open
    assert "circuit breaker open" in second.error.message
    assert third.status == "degraded"
    final = server.breaker_states()["demo"]
    assert final["state"] == "open" and final["probes"] >= 1
    assert final["opened"] == 2
    assert server.stats().breakers["demo"]["fast_failed"] >= 1


def test_breaker_recloses_after_successful_probe():
    clock = FakeClock()

    class Recovering(EchoSystem):
        def __init__(self):
            super().__init__()
            self.broken = True

        def predict(self, question, db_id):
            if self.broken:
                raise RuntimeError("still down")
            return super().predict(question, db_id)

        def predict_batch(self, questions, db_id):
            if self.broken:
                raise RuntimeError("still down")
            return super().predict_batch(questions, db_id)

    system = Recovering()

    async def scenario():
        backend = DomainBackend(name="demo", system=system, fallback=StubFallback())
        config = ServerConfig(
            cache_capacity=0, breaker_failures=2, breaker_reset_s=10.0
        )
        async with InferenceServer([backend], config, clock=clock) as server:
            await server.submit("q1", "demo")  # trips the breaker
            system.broken = False
            clock.advance(10.0)
            healed = await server.submit("q2", "demo")
            return healed, server.breaker_states()["demo"]

    healed, snapshot = run(scenario())
    assert healed.status == "ok"
    assert healed.sql == "SELECT 'q2' FROM demo"
    assert snapshot["state"] == "closed"


def test_stop_resolves_queued_requests():
    async def scenario():
        server = echo_server()  # never started
        pending = asyncio.ensure_future(server.submit("q", "demo"))
        await asyncio.sleep(0)
        server._started = True  # force the drain path
        await server.stop()
        return await pending

    result = run(scenario())
    assert result.status == "failed"
    assert result.error.kind == "shutdown"


# -- template fallback ----------------------------------------------------------


def test_template_fallback_produces_executable_sql(mini_db, mini_enhanced):
    fallback = TemplateFallback()
    fallback.register_database("mini", mini_db, mini_enhanced)
    for question in (
        "How many spectroscopic objects are there?",
        "Show the redshift of each spectroscopic object",
        "completely ungroundable gibberish",
    ):
        sql = fallback.predict(question, "mini")
        assert mini_db.try_execute(sql) is not None, sql
    counting = fallback.predict("How many photometric objects?", "mini")
    assert counting.startswith("SELECT count(*)")


# -- byte-identity against a really-trained system ------------------------------


@pytest.fixture(scope="module")
def served_system():
    corpus = build_corpus(train_per_db=30, dev_per_db=8)
    from repro.nl2sql import ValueNet

    system = ValueNet()
    for db_id, database in corpus.databases.items():
        system.register_database(db_id, database, corpus.enhanced[db_id])
    system.train(corpus.train.pairs)
    db_id = corpus.dev.pairs[0].db_id
    questions = [p.question for p in corpus.dev.pairs if p.db_id == db_id][:8]
    expected = {q: system.predict(q, db_id) for q in questions}
    return system, db_id, questions, expected


@pytest.mark.parametrize("max_batch", (1, 2, 8))
def test_batched_serving_is_byte_identical(served_system, max_batch):
    system, db_id, questions, expected = served_system

    async def scenario():
        backend = DomainBackend(name=db_id, system=system)
        config = ServerConfig(
            max_batch=max_batch, max_wait_ms=5.0, cache_capacity=0
        )
        async with InferenceServer([backend], config) as server:
            return await asyncio.gather(
                *(server.submit(question, db_id) for question in questions)
            )

    for result in run(scenario()):
        assert result.status == "ok"
        assert result.sql == expected[result.question]


@settings(max_examples=12, deadline=None)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=24),
    max_batch=st.integers(min_value=1, max_value=8),
    cache_capacity=st.sampled_from((0, 64)),
)
def test_any_interleaving_matches_direct_predict(
    served_system, picks, max_batch, cache_capacity
):
    """Property: for any request stream, any batch size, cache on or off,
    served SQL == direct ``system.predict`` output."""
    system, db_id, questions, expected = served_system
    stream = [questions[i % len(questions)] for i in picks]

    async def scenario():
        backend = DomainBackend(name=db_id, system=system)
        config = ServerConfig(
            max_batch=max_batch, max_wait_ms=2.0, cache_capacity=cache_capacity
        )
        async with InferenceServer([backend], config) as server:
            return await asyncio.gather(
                *(server.submit(question, db_id) for question in stream)
            )

    for result in run(scenario()):
        assert result.status == "ok"
        assert result.sql == expected[result.question]


def test_fleet_serving_is_byte_identical(served_system):
    """The determinism contract: fleet answers == direct ``predict`` output,
    byte for byte, with requests sharded over two replica clones."""
    from repro.fleet import build_fleet

    system, db_id, questions, expected = served_system

    async def scenario():
        backend = DomainBackend(name=db_id, system=system)
        router = build_fleet(
            {db_id: backend}, 2,
            server_config=ServerConfig(max_batch=4, max_wait_ms=2.0),
        )
        async with router:
            return await asyncio.gather(
                *(router.submit(question, db_id) for question in questions * 2)
            )

    results = run(scenario())
    replicas = set()
    for result in results:
        assert result.ok
        assert result.sql == expected[result.question]
        if result.replica:
            replicas.add(result.replica)
    # Requests really dispatched to the fleet's slots, not a degenerate path.
    assert replicas and replicas <= {"r0", "r1"}


# -- load generator -------------------------------------------------------------


def test_build_stream_is_deterministic():
    questions = {"b": ["q1", "q2"], "a": ["q3"]}
    profile = LoadProfile(repeat=2, seed=5)
    stream = build_stream(questions, profile)
    assert stream == build_stream(questions, profile)
    assert len(stream) == 6
    assert build_stream(questions, LoadProfile(repeat=2, seed=5, limit=3)) == stream[:3]


def test_run_serve_bench_report_structure(tmp_path):
    backends = {"demo": DomainBackend(name="demo", system=EchoSystem())}
    questions = {"demo": [f"question {i}" for i in range(6)]}
    report = run_serve_bench(
        backends,
        questions,
        LoadProfile(concurrency=4, repeat=3, seed=1),
        ServerConfig(max_batch=4, max_wait_ms=1.0),
    )
    assert report["stream"]["requests"] == 18
    assert set(report["arms"]) == {"unbatched", "batched"}
    for arm in report["arms"].values():
        assert arm["requests"] == 18
        assert arm["statuses"] == {"ok": 18}
        assert arm["latency"]["p50_ms"] <= arm["latency"]["p95_ms"]
    assert report["arms"]["unbatched"]["counters"]["cache_hits"] == 0
    assert report["arms"]["batched"]["counters"]["cache_hits"] > 0
    assert report["speedup"] > 0

    path = write_report(report, tmp_path / "bench" / "report.json")
    assert path.exists()
    text = render_report(report)
    assert "speedup" in text and "unbatched" in text
