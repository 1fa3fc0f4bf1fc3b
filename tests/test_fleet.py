"""Tests for the sharded multi-replica serving fleet (repro.fleet).

The load-bearing guarantees:

* **Single-flight** — K concurrent identical questions decode exactly once
  across the whole fleet and all K get answers (property-based over K):
  the router sends the key to its one owner replica, whose result cache
  coalesces the duplicates.
* **Zero-downtime reload** — requests racing a rolling reload all succeed;
  none are dropped, rejected or failed, and answers switch to the new
  model generation afterwards.
* **Deterministic sharding** — routing depends only on the ring members
  and the normalized question, never on process identity or timing.
"""

from __future__ import annotations

import asyncio
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DRAINING,
    SERVING,
    STOPPED,
    FleetConfig,
    FleetError,
    FleetRouter,
    FleetSpec,
    HashRing,
    QuotaPolicy,
    TenantQuotas,
    TokenBucket,
    build_fleet,
    fork_available,
    make_replica,
    stable_hash,
)
from repro.obs.export import BENCH_SCHEMA_VERSION
from repro.resilience import FakeClock
from repro.serving import (
    DomainBackend,
    FleetProfile,
    LoadProfile,
    ServerConfig,
    evaluate_gates,
    run_serve_bench,
)
from repro.serving.cache import ResultCache


def run(coro):
    return asyncio.run(coro)


# -- stub systems ---------------------------------------------------------------


class EchoSystem:
    """Deterministic stand-in for a trained system."""

    _trained = True

    def link(self, question, db_id):
        return None

    def predict(self, question, db_id):
        return f"SELECT '{question}' FROM {db_id}"

    def predict_batch(self, questions, db_id):
        return [self.predict(question, db_id) for question in questions]


class CountingSystem(EchoSystem):
    """Counts decodes on a class attribute so replica deep-copies share it."""

    batches: list[list[str]] = []

    def predict_batch(self, questions, db_id):
        type(self).batches.append(list(questions))
        return super().predict_batch(questions, db_id)


class FaultySystem(EchoSystem):
    def predict(self, question, db_id):
        raise RuntimeError("decoder exploded")

    def predict_batch(self, questions, db_id):
        raise RuntimeError("batch decoder exploded")


def demo_backends(system=None):
    return {"demo": DomainBackend(name="demo", system=system or EchoSystem())}


def fast_config(**overrides):
    defaults = dict(max_batch=4, max_wait_ms=1.0)
    defaults.update(overrides)
    return ServerConfig(**defaults)


# -- hash ring ------------------------------------------------------------------


def test_stable_hash_is_process_independent():
    # blake2b, not the salted builtin hash: the value must never change
    # across processes or runs, or shard ownership scatters on restart.
    assert stable_hash("demo: q1") == stable_hash("demo: q1")
    assert stable_hash("a") != stable_hash("b")
    assert 0 <= stable_hash("anything") < 2**64


def test_ring_assignment_ignores_insertion_order():
    forward = HashRing(("r0", "r1", "r2"), vnodes=32)
    backward = HashRing(("r2", "r1", "r0"), vnodes=32)
    for i in range(200):
        assert forward.node_for(f"q{i}") == backward.node_for(f"q{i}")


def test_ring_spreads_keys_over_all_nodes():
    ring = HashRing(("r0", "r1", "r2"), vnodes=64)
    owners = {ring.node_for(f"q{i}") for i in range(300)}
    assert owners == {"r0", "r1", "r2"}


def test_ring_removal_moves_only_the_removed_nodes_keys():
    ring = HashRing(("r0", "r1", "r2"), vnodes=32)
    before = {f"q{i}": ring.node_for(f"q{i}") for i in range(300)}
    ring.remove("r1")
    for key, owner in before.items():
        if owner != "r1":
            assert ring.node_for(key) == owner
        else:
            assert ring.node_for(key) in ("r0", "r2")


def test_nodes_for_yields_distinct_failover_order():
    ring = HashRing(("r0", "r1", "r2"), vnodes=16)
    siblings = ring.nodes_for("some question", 3)
    assert len(siblings) == 3
    assert len(set(siblings)) == 3
    assert siblings[0] == ring.node_for("some question")
    # Stable: the same key always gets the same failover chain.
    assert siblings == ring.nodes_for("some question", 3)


def test_empty_ring_raises():
    with pytest.raises(KeyError):
        HashRing().node_for("q")
    assert HashRing().nodes_for("q", 2) == []


# -- quotas ---------------------------------------------------------------------


def test_token_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(QuotaPolicy(rate_per_s=2.0, burst=3), clock=clock)
    assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
    clock.advance(1.0)  # 2 tokens back
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    assert bucket.admitted == 5
    assert bucket.rejected == 2


def test_tenant_quotas_isolate_tenants():
    clock = FakeClock()
    quotas = TenantQuotas(default=QuotaPolicy(1.0, 1), clock=clock)
    assert quotas.admit("t0")
    assert not quotas.admit("t0")  # t0 exhausted its own bucket...
    assert quotas.admit("t1")      # ...t1 is untouched
    snapshot = quotas.snapshot()
    assert snapshot["t0"]["rejected"] == 1
    assert snapshot["t1"]["admitted"] == 1


def test_tenant_quotas_default_none_is_unlimited():
    quotas = TenantQuotas(default=None, overrides={"noisy": QuotaPolicy(1.0, 1)})
    assert all(quotas.admit("anyone") for _ in range(100))
    assert quotas.admit("noisy")
    assert not quotas.admit("noisy")


# -- owner-held result cache / single-flight --------------------------------------


def test_shared_cache_single_flight_mechanics():
    async def scenario():
        cache = ResultCache(capacity=8)
        leader = cache.flight("demo", "What is X?")
        follower = cache.flight("demo", "what is x?")  # normalizes to same key
        assert leader.leader and not follower.leader
        assert cache.coalesced == 1
        with pytest.raises(ValueError):
            cache.settle(follower, "nope")
        cache.settle(leader, "answer")
        assert await follower.future == "answer"
        assert cache.inflight == 0

    run(scenario())


def test_shared_cache_aborted_leader_settles_followers_with_none():
    async def scenario():
        cache = ResultCache()
        leader = cache.flight("demo", "q")
        follower = cache.flight("demo", "q")
        cache.settle(leader, None)
        assert await follower.future is None
        assert cache.aborted == 1

    run(scenario())


# -- router ---------------------------------------------------------------------


def test_fleet_routes_and_tags_results():
    async def scenario():
        router = build_fleet(demo_backends(), 2, server_config=fast_config())
        async with router:
            results = await asyncio.gather(
                *(router.submit(f"question {i}", "demo") for i in range(12))
            )
        assert all(r.ok for r in results)
        assert {r.replica for r in results if not r.single_flight} <= {"r0", "r1"}
        assert all(r.tenant == "default" for r in results)
        view = router.metrics_view()
        assert view["fleet.requests"]["value"] == 12
        assert "replica.r0.serving.served" in view
        assert "replica.r1.serving.served" in view
        return results

    run(scenario())


def test_fleet_routing_is_deterministic_across_fleets():
    async def shard_map():
        router = build_fleet(
            demo_backends(), 3, server_config=fast_config(cache_capacity=0)
        )
        async with router:
            results = await asyncio.gather(
                *(router.submit(f"question {i}", "demo") for i in range(30))
            )
        return {r.question: r.replica for r in results}

    assert run(shard_map()) == run(shard_map())


def test_unknown_domain_is_a_structured_failure():
    async def scenario():
        router = build_fleet(demo_backends(), 2, server_config=fast_config())
        async with router:
            return await router.submit("q", "nope")

    result = run(scenario())
    assert result.status == "failed"
    assert result.error.kind == "unknown-domain"


def test_duplicate_slot_is_rejected():
    router = build_fleet(demo_backends(), 2, server_config=fast_config())
    with pytest.raises(FleetError):
        router.add_replica(
            make_replica("r0", demo_backends(), fast_config())
        )


@settings(max_examples=10, deadline=None)
@given(duplicates=st.integers(min_value=2, max_value=12))
def test_concurrent_identical_questions_decode_exactly_once(duplicates):
    """Satellite: K concurrent identical questions -> one decode, K answers."""
    CountingSystem.batches = []

    async def scenario():
        router = build_fleet(
            demo_backends(CountingSystem()), 2, server_config=fast_config()
        )
        async with router:
            return await asyncio.gather(
                *(
                    router.submit("the same question", "demo")
                    for _ in range(duplicates)
                )
            )

    results = run(scenario())
    assert len(results) == duplicates
    assert all(r.ok for r in results)
    assert len({r.sql for r in results}) == 1
    # Exactly one decode hit a replica; everyone else coalesced onto it.
    assert sum(len(batch) for batch in CountingSystem.batches) == 1
    assert sum(1 for r in results if r.single_flight) == duplicates - 1


def test_fleet_shared_cache_answers_repeat_questions():
    async def scenario():
        router = build_fleet(demo_backends(), 2, server_config=fast_config())
        async with router:
            first = await router.submit("what is x?", "demo")
            second = await router.submit("What is X?", "demo")
        return first, second

    first, second = run(scenario())
    assert first.ok and not first.cached
    assert second.cached and second.sql == first.sql


def _owned_question(router, slot, domain="demo"):
    """A question whose shard owner is ``slot`` (probe the ring)."""
    ring = router._rings[domain]
    for i in range(1000):
        question = f"probe question {i}"
        if ring.node_for(ResultCache.key(domain, question)[1]) == slot:
            return question
    raise AssertionError(f"no probe question owned by {slot}")


def test_failed_shard_owner_retries_on_its_sibling():
    async def scenario():
        router = FleetRouter(FleetConfig(retries=1, breaker_failures=1))
        config = fast_config(cache_capacity=0)
        router.add_replica(
            make_replica("r0", demo_backends(FaultySystem()), config)
        )
        router.add_replica(make_replica("r1", demo_backends(), config))
        async with router:
            question = _owned_question(router, "r0")
            first = await router.submit(question, "demo")
            # r0's breaker opened on the failure: the next r0-owned request
            # skips it without spending a decode there.
            second = await router.submit(_owned_question(router, "r0"), "demo")
        return router, first, second

    router, first, second = run(scenario())
    assert first.ok and first.replica == "r1"
    assert second.ok and second.replica == "r1"
    assert router.counters["retries"] >= 1
    assert router.counters["fast_failed"] >= 1
    assert router.stats()["breakers"]["r0"]["state"] == "open"


def test_quota_rejection_is_structured_and_per_tenant():
    async def scenario():
        quotas = TenantQuotas(default=QuotaPolicy(1.0, 1), clock=FakeClock())
        router = build_fleet(
            demo_backends(), 2, server_config=fast_config(), quotas=quotas
        )
        async with router:
            first = await router.submit("q1", "demo", tenant="t0")
            second = await router.submit("q2", "demo", tenant="t0")
            other = await router.submit("q3", "demo", tenant="t1")
        return router, first, second, other

    router, first, second, other = run(scenario())
    assert first.ok
    assert second.status == "rejected"
    assert second.error.kind == "quota"
    assert second.tenant == "t0"
    assert other.ok  # one tenant's pressure never touches another's
    assert router.counters["quota_rejected"] == 1


# -- zero-downtime reload ---------------------------------------------------------


class V2System(EchoSystem):
    def predict(self, question, db_id):
        return f"SELECT v2 '{question}' FROM {db_id}"


def test_reload_swaps_generations_without_dropping_requests():
    """Satellite: requests racing a reload all succeed; zero dropped."""

    async def scenario():
        router = build_fleet(
            demo_backends(),
            2,
            server_config=fast_config(),
            factory=lambda: demo_backends(V2System()),
        )
        async with router:
            old = dict(router.replicas)

            async def client(i):
                await asyncio.sleep(0.001 * (i % 5))
                return await router.submit(f"load question {i}", "demo")

            load = [asyncio.ensure_future(client(i)) for i in range(40)]
            await asyncio.sleep(0.002)
            report = await router.reload()
            results = await asyncio.gather(*load)
            after = await router.submit("a fresh question", "demo")
        return router, old, report, results, after

    router, old, report, results, after = run(scenario())
    assert all(r.ok for r in results), [r.status for r in results if not r.ok]
    statuses = {r.status for r in results}
    assert "failed" not in statuses and "rejected" not in statuses
    assert {swap["slot"] for swap in report["swaps"]} == {"r0", "r1"}
    assert all(replica.state == STOPPED for replica in old.values())
    assert all(
        replica.generation == 2 for replica in router.replicas.values()
    )
    assert all(
        replica.state == SERVING for replica in router.replicas.values()
    )
    # The roll invalidated the shared cache, so the new generation answers.
    assert after.sql.startswith("SELECT v2 ")
    assert router.counters["reloads"] == 1
    assert router.counters["swapped"] == 2


def test_reload_leaves_no_cached_answer_of_the_old_generation():
    """Swapped-in servers start with empty caches: a question cached before
    the roll is decoded again by the new model generation after it."""

    async def scenario():
        router = build_fleet(
            demo_backends(),
            2,
            server_config=fast_config(),
            factory=lambda: demo_backends(V2System()),
        )
        async with router:
            before = await router.submit("what is x?", "demo")
            repeat = await router.submit("What is X?", "demo")
            await router.reload()
            after = await router.submit("what is x?", "demo")
        return before, repeat, after

    before, repeat, after = run(scenario())
    assert repeat.cached and repeat.sql == before.sql
    assert repeat.replica == before.replica  # the key's one owner
    assert not after.cached and after.sql.startswith("SELECT v2 ")


def test_reload_without_factory_raises():
    async def scenario():
        router = FleetRouter()
        router.add_replica(make_replica("r0", demo_backends(), fast_config()))
        async with router:
            await router.reload()

    with pytest.raises(FleetError):
        run(scenario())


def test_drain_with_no_traffic_stops_cleanly():
    async def scenario():
        replica = make_replica("r0", demo_backends(), fast_config())
        await replica.server.start()
        assert replica.state == SERVING
        drained = await replica.drain()
        assert replica.state == STOPPED
        assert drained == 0
        assert DRAINING == "draining"  # the intermediate state is public API

    run(scenario())


# -- replica clones ---------------------------------------------------------------


SKY_QUESTIONS = {
    "How many photometric objects are there?": "SELECT COUNT(*) FROM photoobj",
    "List the class of every spectroscopic object.": "SELECT class FROM specobj",
}


def _sky_valuenet(databases: dict, enhanced):
    """A ValueNet trained on :data:`SKY_QUESTIONS` over vector databases."""
    from repro.datasets.records import NLSQLPair
    from repro.nl2sql import ValueNet

    system = ValueNet()
    for db_id, database in databases.items():
        database.set_engine("vector")
        system.register_database(db_id, database, enhanced)
    system.train([
        NLSQLPair(question=q, sql=sql, db_id=db_id)
        for q, sql in SKY_QUESTIONS.items() for db_id in databases
    ])
    return system


def test_clone_backends_copies_systems_over_vector_databases(mini_db, mini_enhanced):
    from repro.fleet import clone_backends

    served, other = copy.deepcopy(mini_db), copy.deepcopy(mini_db)
    system = _sky_valuenet({"sky": served, "sky_copy": other}, mini_enhanced)
    original = DomainBackend(name="sky", system=system, database=served)
    clone = clone_backends({"sky": original})["sky"]
    assert clone.system is not system
    assert clone.database is served
    assert clone.system.context("sky").database is served
    copied = clone.system.context("sky_copy").database
    assert copied is not other and copied.engine_name == "vector"
    assert copied.execute("SELECT COUNT(*) FROM photoobj").rows == [(5,)]
    for question in SKY_QUESTIONS:
        for db_id in ("sky", "sky_copy"):
            assert clone.system.predict(question, db_id) == system.predict(
                question, db_id
            )


@pytest.mark.skipif(not fork_available(), reason="process replicas need fork")
def test_process_worker_starts_on_fresh_engines(mini_db, mini_enhanced):
    """The served database is shared with the forked decode worker, and a
    parent thread may hold its engine lock at the moment of the fork: the
    worker must not inherit the lock held and hang on its first query."""
    from repro.fleet import clone_backends, process_backends
    from repro.fleet.procpool import _worker_decode

    served = copy.deepcopy(mini_db)
    system = _sky_valuenet({"sky": served}, mini_enhanced)
    question = next(iter(SKY_QUESTIONS))
    expected = system.predict(question, "sky")
    backends = {"sky": DomainBackend(name="sky", system=system, database=served)}
    _, pool = process_backends(clone_backends(backends))
    try:
        with served._executor._lock:  # the vector engine's plan-cache lock
            future = pool.submit(_worker_decode, "sky", [question])  # forks
        assert future.result(timeout=30) == [expected]
    finally:
        for process in list(pool._processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)


# -- fleet specs ------------------------------------------------------------------


def test_fleet_spec_round_trips_and_reregisters_adapters():
    from repro.adapters import specs_for

    spec = FleetSpec(
        system="valuenet",
        regime="both",
        domains=("cordis",),
        adapter_specs=specs_for(("cordis",)),
    )
    spec.ensure_adapters()  # idempotent on identical manifests
    data = spec.as_dict()
    assert data["domains"] == ["cordis"]
    assert data["adapter_specs"][0]["name"] == "cordis"


# -- serve-bench report + gates ---------------------------------------------------


@pytest.fixture(scope="module")
def fleet_report():
    questions = {"demo": [f"question {i}" for i in range(8)]}
    profile = LoadProfile(concurrency=8, repeat=2, seed=11)
    fleet = FleetProfile(
        replicas=2,
        tenants=2,
        soak_qps=400.0,
        soak_requests=12,
        quota_rate=200.0,
        quota_burst=8.0,
    )
    return run_serve_bench(
        demo_backends(), questions, profile, fast_config(), fleet=fleet
    )


def test_report_has_fleet_and_soak_arms(fleet_report):
    assert fleet_report["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(fleet_report["arms"]) == {"unbatched", "batched", "fleet", "soak"}
    for arm in fleet_report["arms"].values():
        assert arm["achieved_qps"] > 0
        assert arm["queue_depth"]["samples"]
        assert set(arm["rejections"]) == {"quota", "admission"}
        assert "answers" not in arm  # identity input, not report payload
    assert fleet_report["arms"]["fleet"]["replicas"] == 2
    assert fleet_report["arms"]["soak"]["offered_qps"] == 400.0


def test_report_fleet_identity_and_tenants(fleet_report):
    identity = fleet_report["fleet_identity"]
    assert identity["identical"], identity["divergences"]
    assert identity["compared"] == 8
    tenants = fleet_report["arms"]["soak"]["tenants"]
    assert set(tenants["per_tenant"]) == {"t0", "t1"}
    assert tenants["fairness"]["p95_spread"] >= 1.0
    assert "fleet_speedup" in fleet_report
    assert "queue_p95_ratio" in fleet_report


def test_gates_pass_on_the_real_report(fleet_report):
    assert evaluate_gates(fleet_report) == []


def _minimal_report(**arm_overrides):
    arm = {
        "statuses": {"ok": 10},
        "rejections": {"quota": 0, "admission": 0},
        "breakers": {},
        "latency": {"p95_ms": 10.0, "p99_ms": 20.0},
    }
    arm.update(arm_overrides)
    return {
        "speedup": 3.0,
        "arms": {"unbatched": dict(arm), "batched": arm},
    }


def test_gates_always_fail_on_failures_and_timeouts():
    report = _minimal_report(statuses={"ok": 8, "failed": 1, "timeout": 1})
    failures = evaluate_gates(report, allow_rejections=True)
    assert len(failures) == 4  # both arms x both statuses
    assert any("failed" in f for f in failures)
    assert any("timeout" in f for f in failures)


def test_gates_admission_rejections_respect_allow_flag():
    """Satellite: non-zero exit on rejections unless --allow-rejections."""
    report = _minimal_report(rejections={"quota": 0, "admission": 3})
    assert evaluate_gates(report)  # gated by default
    assert evaluate_gates(report, allow_rejections=True) == []


def test_gates_quota_rejections_never_gate():
    report = _minimal_report(rejections={"quota": 7, "admission": 0})
    assert evaluate_gates(report) == []


def test_gates_open_breaker_fails():
    report = _minimal_report(breakers={"demo": {"state": "open"}})
    assert any("breaker" in f for f in evaluate_gates(report))


def test_gates_fleet_gain_needs_speedup_or_queue_relief():
    report = _minimal_report()
    report["fleet_identity"] = {"identical": True, "divergences": []}
    report["fleet_speedup"] = 1.1
    report["queue_p95_ratio"] = 0.4
    assert evaluate_gates(report, assert_fleet_gain=True) == []
    report["queue_p95_ratio"] = 0.9
    assert any("fleet gain" in f for f in evaluate_gates(report, assert_fleet_gain=True))
    report["fleet_speedup"] = 2.5
    assert evaluate_gates(report, assert_fleet_gain=True) == []


def test_gates_fleet_gain_downgrades_to_warning_on_one_cpu_host():
    """Satellite: on a 1-cpu host the missed fleet gain is a recorded
    warning in the report, not a failure; multi-cpu hosts still gate hard."""
    report = _minimal_report()
    report["fleet_identity"] = {"identical": True, "divergences": []}
    report["fleet_speedup"] = 1.1
    report["queue_p95_ratio"] = 0.9
    report["host"] = {"cpus": 1}
    assert evaluate_gates(report, assert_fleet_gain=True) == []
    assert any("1-cpu host" in w for w in report["warnings"])

    report["host"] = {"cpus": 8}
    assert any(
        "fleet gain" in f for f in evaluate_gates(report, assert_fleet_gain=True)
    )


def test_gates_identity_divergence_always_fails():
    report = _minimal_report()
    report["fleet_identity"] = {
        "identical": False,
        "divergences": [{"question": "demo: q", "batched_sql": "a", "fleet_sql": "b"}],
    }
    assert any("diverge" in f for f in evaluate_gates(report))


def test_gates_fairness_needs_a_multi_tenant_arm():
    report = _minimal_report()
    assert any(
        "fairness" in f for f in evaluate_gates(report, assert_fairness=2.0)
    )
    report["arms"]["soak"] = {
        "statuses": {"ok": 5},
        "rejections": {"quota": 0, "admission": 0},
        "breakers": {},
        "latency": {"p95_ms": 5.0, "p99_ms": 6.0},
        "tenants": {"fairness": {"p95_spread": 3.0, "answered_spread": 1.0}},
    }
    assert any(
        "spread" in f for f in evaluate_gates(report, assert_fairness=2.0)
    )
    assert evaluate_gates(report, assert_fairness=4.0) == []
