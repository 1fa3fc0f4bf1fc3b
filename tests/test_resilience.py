"""Tests for the deterministic fault-injection & recovery subsystem.

The load-bearing claim: under any *transient-only* fault schedule, every
recovered artifact — synthetic splits, task-graph artifacts, repaired cache
entries — is byte-identical to the fault-free run.  Checked here at every
layer (model wrapper, translator, pipeline, scheduler, cache), with the
end-to-end version living in ``chaos-bench``.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.cli import main
from repro.datasets import cordis
from repro.llm.models import GPT3_PROFILE, make_model
from repro.obs.export import BENCH_SCHEMA_VERSION
from repro.resilience import (
    SCHEDULES,
    CircuitBreaker,
    CircuitOpenError,
    FakeClock,
    FaultPlan,
    FaultRule,
    FlakyModel,
    PermanentFault,
    RateLimitFault,
    ResilienceStats,
    RetryOutcome,
    RetryPolicy,
    call_with_retry,
)
from repro.resilience.chaosbench import evaluate_chaos_gates
from repro.runtime import ArtifactCache, Runtime, Task, TaskGraph, TaskTimeoutError
from repro.synthesis import (
    AugmentationPipeline,
    PipelineConfig,
    SqlToNlTranslator,
    TranslationConfig,
    TranslationFailure,
)

# -- toy task bodies (module-level so worker processes can import them) --------


def emit(params, inputs):
    return params["value"]


def join(params, inputs):
    return params.get("sep", "+").join(inputs[role] for role in sorted(inputs))


def snooze(params, inputs):
    time.sleep(params["s"])
    return "slept"


def _toy_graph():
    graph = TaskGraph()
    graph.add(Task("x", "tests.test_resilience:emit", {"value": "a"}))
    graph.add(Task("y", "tests.test_resilience:emit", {"value": "b"}))
    graph.add(
        Task(
            "xy",
            "tests.test_resilience:join",
            {},
            deps=(("left", "x"), ("right", "y")),
        )
    )
    return graph


FAST = RetryPolicy(max_attempts=4, base_delay_s=0.0001, max_delay_s=0.001, budget_s=1.0)


@pytest.fixture(scope="module")
def domain_factory():
    return lambda: cordis.build(scale=0.12)


# -- fault plans ---------------------------------------------------------------


def test_fault_plan_is_deterministic_and_attempt_bounded():
    rule = FaultRule("llm", "rate-limit", rate=0.5)
    plan_a = FaultPlan(9, (rule,))
    plan_b = FaultPlan(9, (rule,))
    identities = [f"SELECT {i}" for i in range(100)]
    draws_a = [plan_a.draw("llm", sql, 0) for sql in identities]
    assert draws_a == [plan_b.draw("llm", sql, 0) for sql in identities]
    hit = sum(1 for draw in draws_a if draw)
    assert 20 < hit < 80  # rate is honoured statistically
    # Transient semantics: at max_attempt the fault stops, guaranteed.
    faulted = next(sql for sql, d in zip(identities, draws_a) if d)
    assert plan_a.draw("llm", faulted, 1) is None
    # Different seed: a different (but still deterministic) schedule.
    assert [FaultPlan(10, (rule,)).draw("llm", s, 0) for s in identities] != draws_a


def test_fault_plan_site_match_and_accounting():
    plan = FaultPlan(
        1,
        (
            FaultRule("cache", "cache-tear", rate=1.0, match="corpus"),
            FaultRule("task", "worker-crash", rate=1.0, match="xy"),
        ),
    )
    assert plan.draw("cache", "corpus", 0) == "cache-tear"
    assert plan.draw("cache", "domain:cordis", 0) is None  # match filter
    assert plan.draw("task", "xy", 0) == "worker-crash"
    assert plan.draw("llm", "corpus", 0) is None  # wrong site
    assert plan.draw("task", "xy", 1) is None  # past max_attempt
    assert plan.injected == {"cache-tear": 1, "worker-crash": 1}


def test_fault_plan_spec_round_trip_and_named_schedules():
    for name, spec in SCHEDULES.items():
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec, name
    with pytest.raises(ValueError):
        FaultRule("llm", "nonsense", rate=0.5)
    with pytest.raises(ValueError):
        FaultRule("llm", "timeout", rate=1.5)


# -- clocks --------------------------------------------------------------------


def test_fake_clock_auto_advances_and_records():
    clock = FakeClock(start=5.0)
    clock.sleep(2.0)
    clock.sleep(0.5)
    assert clock.now() == 7.5
    assert clock.sleeps == [2.0, 0.5]


def test_fake_clock_blocking_parks_until_advance():
    import threading

    clock = FakeClock(blocking=True)
    done = threading.Event()

    def sleeper():
        clock.sleep(3.0)
        done.set()

    thread = threading.Thread(target=sleeper)
    thread.start()
    assert not done.wait(timeout=0.05)  # verifiably parked
    clock.advance(3.0)
    assert done.wait(timeout=2.0)
    thread.join()


# -- retry policy --------------------------------------------------------------


def test_retry_delay_is_deterministic_jittered_and_capped():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3, jitter=0.5)
    for attempt, raw in ((0, 0.1), (1, 0.2), (2, 0.3), (5, 0.3)):
        delay = policy.delay(attempt, "q")
        assert raw * 0.5 <= delay <= raw
        assert delay == policy.delay(attempt, "q")  # deterministic
    assert policy.delay(0, "q") != policy.delay(0, "other")  # decorrelated
    assert RetryPolicy(jitter=0.0).delay(0, "q") == 0.02
    assert RetryPolicy.from_spec(policy.to_spec()) == policy


def test_call_with_retry_recovers_and_accounts():
    clock = FakeClock()
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise RateLimitFault("injected", identity="q")
        return "ok"

    outcome = RetryOutcome()
    result = call_with_retry(flaky, FAST, identity="q", clock=clock, outcome=outcome)
    assert result == "ok"
    assert outcome.attempts == 3
    assert outcome.recovered == {"rate-limit": 2}
    assert outcome.slept_s == pytest.approx(sum(clock.sleeps))
    assert len(clock.sleeps) == 2


def test_call_with_retry_propagates_permanent_and_exhaustion():
    def permanent():
        raise PermanentFault("cannot translate", identity="q")

    with pytest.raises(PermanentFault):
        call_with_retry(permanent, FAST, clock=FakeClock())

    calls = {"n": 0}

    def always_transient():
        calls["n"] += 1
        raise RateLimitFault("injected")

    with pytest.raises(RateLimitFault):
        call_with_retry(always_transient, FAST, clock=FakeClock())
    assert calls["n"] == FAST.max_attempts


def test_call_with_retry_honours_sleep_budget():
    policy = RetryPolicy(
        max_attempts=100, base_delay_s=0.4, multiplier=1.0,
        max_delay_s=0.4, jitter=0.0, budget_s=1.0,
    )
    clock = FakeClock()
    calls = {"n": 0}

    def always_transient():
        calls["n"] += 1
        raise RateLimitFault("injected")

    with pytest.raises(RateLimitFault):
        call_with_retry(always_transient, policy, clock=clock)
    assert calls["n"] == 3  # slept 0.4 + 0.4; a third sleep would break 1.0


# -- circuit breaker -----------------------------------------------------------


def test_breaker_full_state_cycle():
    clock = FakeClock()
    breaker = CircuitBreaker("dep", failure_threshold=2, reset_timeout_s=10.0, clock=clock)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    with pytest.raises(CircuitOpenError):
        breaker.check()
    clock.advance(10.0)
    assert breaker.state == "half-open"
    assert breaker.allow()  # the single probe slot
    assert not breaker.allow()  # no second probe
    breaker.record_failure()  # probe failed: re-open
    assert breaker.state == "open"
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_success()  # probe succeeded: close
    assert breaker.state == "closed"
    snapshot = breaker.snapshot()
    assert snapshot["state"] == "closed"
    assert snapshot["opened"] == 2 and snapshot["probes"] == 2
    assert snapshot["fast_failed"] >= 2


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker("dep", failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"


# -- flaky model & translator --------------------------------------------------


def test_translator_recovers_byte_identically(domain_factory):
    domain = domain_factory()
    sqls = [pair.sql for pair in domain.seed.pairs[:6]]
    plain = SqlToNlTranslator(
        domain, model=make_model(GPT3_PROFILE, seed=3),
        config=TranslationConfig(retry=FAST),
    )
    expected = [plain.candidates(sql) for sql in sqls]

    plan = FaultPlan(
        5,
        (
            FaultRule("llm", "rate-limit", rate=0.4),
            FaultRule("llm", "truncated", rate=0.3),
            FaultRule("llm", "malformed", rate=0.2),
        ),
    )
    flaky = SqlToNlTranslator(
        domain, model=FlakyModel(make_model(GPT3_PROFILE, seed=3), plan),
        config=TranslationConfig(retry=FAST), clock=FakeClock(),
    )
    stats = ResilienceStats()
    recovered = []
    for sql in sqls:
        result = flaky.translate_with_recovery(sql)
        assert result.ok
        recovered.append(result.candidates)
        stats.observe(result.attempts, result.recovered, result.slept_s)
    assert recovered == expected  # byte-identical despite injected faults
    assert sum(plan.injected.values()) > 0
    assert stats.retries == sum(plan.injected.values())


def test_translator_dead_letters_permanent_faults(domain_factory):
    domain = domain_factory()
    sql = domain.seed.pairs[0].sql
    plan = FaultPlan(1, (FaultRule("llm", "permanent", rate=1.0, max_attempt=10**6),))
    translator = SqlToNlTranslator(
        domain, model=FlakyModel(make_model(GPT3_PROFILE, seed=3), plan),
        config=TranslationConfig(retry=FAST), clock=FakeClock(),
    )
    result = translator.translate_with_recovery(sql)
    assert not result.ok and result.candidates is None
    letter = result.dead_letter
    assert letter.site == "llm" and letter.kind == "permanent"
    assert letter.identity == sql and letter.attempts == 1
    # The strict API raises a structured failure instead.
    with pytest.raises(TranslationFailure) as exc_info:
        translator.candidates(sql)
    assert exc_info.value.kind == "permanent"
    assert exc_info.value.dead_letter().identity == sql


def test_translator_open_breaker_dead_letters_with_circuit_kind(domain_factory):
    domain = domain_factory()
    clock = FakeClock()
    breaker = CircuitBreaker("llm", failure_threshold=1, reset_timeout_s=999.0, clock=clock)
    breaker.record_failure()  # already open before the call
    translator = SqlToNlTranslator(
        domain, model=make_model(GPT3_PROFILE, seed=3),
        config=TranslationConfig(retry=FAST), breaker=breaker, clock=clock,
    )
    result = translator.translate_with_recovery(domain.seed.pairs[0].sql)
    assert not result.ok
    assert result.dead_letter.kind == "circuit-open"


# -- pipeline ------------------------------------------------------------------


def test_pipeline_chaos_run_matches_fault_free(domain_factory):
    config = PipelineConfig(
        target_queries=30, seed=21, translation=TranslationConfig(retry=FAST)
    )
    baseline = AugmentationPipeline(
        domain_factory(), model=make_model(GPT3_PROFILE, seed=21), config=config
    ).run(rng=random.Random(21))

    plan = FaultPlan.from_spec(SCHEDULES["transient-small"])
    chaos = AugmentationPipeline(
        domain_factory(),
        model=FlakyModel(make_model(GPT3_PROFILE, seed=21), plan),
        config=config,
        clock=FakeClock(),
    ).run(rng=random.Random(21))

    assert [p.question for p in chaos.split.pairs] == [
        p.question for p in baseline.split.pairs
    ]
    assert [p.sql for p in chaos.split.pairs] == [p.sql for p in baseline.split.pairs]
    assert chaos.n_dead_lettered == 0
    assert sum(plan.injected.values()) > 0
    assert chaos.resilience.retried_calls > 0


def test_pipeline_dead_letters_permanent_faults_and_continues(domain_factory):
    config = PipelineConfig(
        target_queries=30, seed=21, translation=TranslationConfig(retry=FAST)
    )
    baseline = AugmentationPipeline(
        domain_factory(), model=make_model(GPT3_PROFILE, seed=21), config=config
    ).run(rng=random.Random(21))

    plan = FaultPlan(8, (FaultRule("llm", "permanent", rate=0.3, max_attempt=10**6),))
    report = AugmentationPipeline(
        domain_factory(),
        model=FlakyModel(make_model(GPT3_PROFILE, seed=21), plan),
        config=config,
        clock=FakeClock(),
    ).run(rng=random.Random(21))

    # The run completed, produced a valid (smaller) split, and accounted
    # for every casualty with a structured reason.
    assert report.n_dead_lettered > 0
    assert report.n_pairs < baseline.n_pairs
    assert len(report.split.pairs) == report.n_pairs
    for letter in report.dead_letters:
        assert letter.site == "llm" and letter.kind == "permanent"
        assert letter.reason and letter.attempts >= 1
    surviving = {p.sql for p in report.split.pairs}
    assert all(letter.identity not in surviving for letter in report.dead_letters)


def test_pipeline_checkpoints_store_and_resume_identically(domain_factory, tmp_path):
    config = PipelineConfig(
        target_queries=25, seed=9, translation=TranslationConfig(retry=FAST)
    )
    cache = ArtifactCache(tmp_path)
    first = AugmentationPipeline(
        domain_factory(), model=make_model(GPT3_PROFILE, seed=9),
        config=config, checkpoints=cache,
    ).run(rng=random.Random(9))
    assert first.checkpoints == {"generate": "stored", "translate": "stored"}

    resumed = AugmentationPipeline(
        domain_factory(), model=make_model(GPT3_PROFILE, seed=9),
        config=config, checkpoints=ArtifactCache(tmp_path),
    ).run(rng=random.Random(9))
    assert resumed.checkpoints == {"generate": "resumed", "translate": "resumed"}
    assert [p.question for p in resumed.split.pairs] == [
        p.question for p in first.split.pairs
    ]

    # A different pipeline config must not share checkpoint keys.
    other = AugmentationPipeline(
        domain_factory(), model=make_model(GPT3_PROFILE, seed=9),
        config=PipelineConfig(
            target_queries=26, seed=9, translation=TranslationConfig(retry=FAST)
        ),
        checkpoints=ArtifactCache(tmp_path),
    ).run(rng=random.Random(9))
    assert other.checkpoints == {"generate": "stored", "translate": "stored"}


# -- scheduler -----------------------------------------------------------------


def test_sequential_runtime_retries_injected_crashes():
    plan = FaultPlan(1, (FaultRule("task", "worker-crash", rate=1.0, match="xy"),))
    runtime = Runtime(workers=1, retry=FAST, fault_plan=plan, clock=FakeClock())
    assert runtime.run(_toy_graph(), ["xy"])["xy"] == "a+b"
    assert runtime.report.recovered == {"worker-crash": 1}
    record = next(r for r in runtime.report.records if r.name == "xy")
    assert record.retries == 1 and record.faults == 1
    assert runtime.report.retries == 1 and runtime.report.faults_injected == 1


def test_parallel_runtime_recovers_from_real_worker_death():
    plan = FaultPlan(1, (FaultRule("task", "worker-crash", rate=1.0, match="xy"),))
    runtime = Runtime(workers=2, retry=FAST, fault_plan=plan)
    # "xy"'s worker dies via os._exit → BrokenProcessPool → pool is rebuilt
    # and the task resubmitted; the artifact matches the fault-free run.
    assert runtime.run(_toy_graph(), ["xy"])["xy"] == "a+b"
    assert runtime.report.recovered.get("worker-crash", 0) >= 1
    record = next(r for r in runtime.report.records if r.name == "xy")
    assert record.retries >= 1 and record.faults == 1


def test_runtime_raises_when_crashes_exhaust_retries():
    plan = FaultPlan(
        1, (FaultRule("task", "worker-crash", rate=1.0, max_attempt=10**6, match="xy"),)
    )
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.0001, budget_s=1.0)
    from repro.resilience import WorkerCrashFault

    with pytest.raises(WorkerCrashFault):
        Runtime(workers=1, retry=policy, fault_plan=plan, clock=FakeClock()).run(
            _toy_graph(), ["xy"]
        )


def test_task_timeout_is_detected_and_retried_then_raised():
    graph = TaskGraph()
    graph.add(Task("slow", "tests.test_resilience:snooze", {"s": 0.05}))
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.0001, budget_s=1.0)
    with pytest.raises(TaskTimeoutError):
        Runtime(
            workers=1, retry=policy, task_timeout_s=0.001, clock=FakeClock()
        ).run(graph, ["slow"])
    # A generous budget lets the same task through untouched.
    runtime = Runtime(workers=1, retry=policy, task_timeout_s=30.0)
    assert runtime.run(graph, ["slow"])["slow"] == "slept"


def test_run_report_render_has_resilience_columns(tmp_path):
    runtime = Runtime(workers=1, cache_dir=str(tmp_path))
    runtime.run(_toy_graph(), ["xy"])
    rendered = runtime.report.render()
    assert "retries=0" in rendered and "faults_injected=0" in rendered
    # The warm-run CI grep contract must survive the new columns.
    warm = Runtime(workers=1, cache_dir=str(tmp_path))
    warm.run(_toy_graph(), ["xy"])
    assert "computed=0 " in warm.report.render()


# -- cache tears & repair (crash consistency) ----------------------------------


def test_torn_cache_write_is_detected_and_repaired(tmp_path):
    plan = FaultPlan(1, (FaultRule("cache", "cache-tear", rate=1.0, match="x"),))
    chaos = Runtime(workers=1, cache_dir=str(tmp_path), fault_plan=plan)
    assert chaos.run(_toy_graph(), ["x"])["x"] == "a"
    assert chaos.cache.tears == 1

    # The torn entry is on disk but unreadable; a fresh fault-free run
    # detects it, recomputes, repairs it — and downstream artifacts built
    # on top are identical to a never-faulted run.
    repair = Runtime(workers=1, cache_dir=str(tmp_path))
    assert repair.run(_toy_graph(), ["xy"])["xy"] == "a+b"
    assert repair.cache.corrupt == 1
    assert sum(repair.cache.corruption_kinds.values()) == 1
    x_record = next(r for r in repair.report.records if r.name == "x")
    assert x_record.status == "computed"  # recomputed, not served torn

    # Third run: everything (including the repaired entry) is served warm.
    warm = Runtime(workers=1, cache_dir=str(tmp_path))
    assert warm.run(_toy_graph(), ["xy"])["xy"] == "a+b"
    assert warm.report.all_cached()
    assert warm.cache.corrupt == 0


def test_cache_records_swallowed_corruption_kinds(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store("ff00", "toy", {"x": 1})
    cache.path_for("ff00").write_bytes(b"not a pickle")
    assert cache.load("ff00") == (False, None)
    assert cache.corrupt == 1
    assert sum(cache.corruption_kinds.values()) == 1
    (kind,) = cache.corruption_kinds
    assert kind  # a concrete exception class name, e.g. UnpicklingError


# -- chaos-bench gates ---------------------------------------------------------


def _chaos_report(**overrides):
    report = {"identical": True, "dead_lettered": 0, "breaker_ended_open": False}
    report.update(overrides)
    return report


def test_chaos_gates_pass_on_a_clean_report():
    report = _chaos_report()
    assert evaluate_chaos_gates(report, assert_identical=True, max_dead_letter=0) == []


def test_chaos_gates_not_identical_fails_when_asserted():
    report = _chaos_report(identical=False)
    assert evaluate_chaos_gates(report) == []
    failures = evaluate_chaos_gates(report, assert_identical=True)
    assert failures == ["chaos output is not byte-identical to the fault-free run"]


def test_chaos_gates_dead_letters_over_budget():
    report = _chaos_report(dead_lettered=3)
    assert evaluate_chaos_gates(report) == []
    assert evaluate_chaos_gates(report, max_dead_letter=3) == []
    assert evaluate_chaos_gates(report, max_dead_letter=2) == [
        "3 dead-lettered queries exceed the budget of 2"
    ]


def test_chaos_gates_breaker_ended_open_always_fails():
    assert evaluate_chaos_gates(_chaos_report(breaker_ended_open=True)) == [
        "a circuit breaker ended the run open"
    ]


def test_chaos_bench_cli_writes_the_envelope_and_exits_on_its_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_resilience.json"
    code = main([
        "chaos-bench", "--skip-tables", "--assert-identical",
        "--max-dead-letter", "0", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "identical=True" in captured.out
    assert "FAIL" not in captured.err
    report = json.loads(out.read_text())
    assert report["schema_version"] == BENCH_SCHEMA_VERSION
    assert report["benchmark"] == "resilience"
