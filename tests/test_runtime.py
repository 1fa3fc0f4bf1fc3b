"""Tests for the task-graph runtime: graph hashing, cache, scheduler and the
determinism/caching guarantees of the suite built on top of it."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Suite
from repro.runtime import ArtifactCache, Runtime, Task, TaskGraph, derive_seed

# -- toy task bodies (module-level so worker processes can import them) --------


def emit(params, inputs):
    return params["value"]


def join(params, inputs):
    return params.get("sep", "+").join(inputs[role] for role in sorted(inputs))


def boom(params, inputs):
    raise RuntimeError("task failed")


def _toy_graph(a="a", b="b", sep="+"):
    graph = TaskGraph()
    graph.add(Task("a", "tests.test_runtime:emit", {"value": a, "seed": derive_seed(1, "a")}))
    graph.add(Task("b", "tests.test_runtime:emit", {"value": b, "seed": derive_seed(1, "b")}))
    graph.add(
        Task(
            "ab",
            "tests.test_runtime:join",
            {"sep": sep},
            deps=(("left", "a"), ("right", "b")),
        )
    )
    return graph


# -- graph ---------------------------------------------------------------------


def test_derive_seed_is_stable_and_task_specific():
    assert derive_seed(7, "domain:sdss") == derive_seed(7, "domain:sdss")
    assert derive_seed(7, "domain:sdss") != derive_seed(7, "domain:cordis")
    assert derive_seed(7, "domain:sdss") != derive_seed(8, "domain:sdss")


def test_content_hash_changes_with_params_and_propagates():
    g1, g2, g3 = _toy_graph(), _toy_graph(a="A"), _toy_graph(sep="-")
    assert g1.content_hash("ab") == _toy_graph().content_hash("ab")
    # Upstream param change propagates to the downstream hash...
    assert g1.content_hash("a") != g2.content_hash("a")
    assert g1.content_hash("ab") != g2.content_hash("ab")
    # ...but leaves unrelated tasks untouched.
    assert g1.content_hash("b") == g2.content_hash("b")
    # A task's own params change its hash without touching upstream hashes.
    assert g1.content_hash("ab") != g3.content_hash("ab")
    assert g1.content_hash("a") == g3.content_hash("a")


def test_graph_rejects_duplicates_and_unknown_deps():
    graph = TaskGraph()
    graph.add(Task("a", "tests.test_runtime:emit", {"value": "a"}))
    with pytest.raises(ValueError):
        graph.add(Task("a", "tests.test_runtime:emit", {"value": "a2"}))
    with pytest.raises(ValueError):
        graph.add(Task("c", "tests.test_runtime:emit", {}, deps=(("x", "nope"),)))
    with pytest.raises(KeyError):
        graph.task("missing")


def test_closure_is_topological_and_minimal():
    graph = _toy_graph()
    assert graph.closure(["ab"]) == ["a", "b", "ab"]
    assert graph.closure(["b"]) == ["b"]


# -- cache ---------------------------------------------------------------------


def test_cache_round_trip_and_corruption_recovery(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store("ff00", "toy", {"x": 1})
    hit, value = cache.load("ff00")
    assert hit and value == {"x": 1}
    # Corrupt the entry on disk: must be treated as a miss and removed.
    path = cache.path_for("ff00")
    path.write_bytes(b"not a pickle")
    hit, value = cache.load("ff00")
    assert not hit and value is None
    assert cache.corrupt == 1
    assert not path.exists()
    # A key mismatch (entry copied under the wrong name) is also corruption.
    cache.store("aa11", "toy", 1)
    cache.path_for("bb22").parent.mkdir(parents=True, exist_ok=True)
    cache.path_for("bb22").write_bytes(cache.path_for("aa11").read_bytes())
    hit, _ = cache.load("bb22")
    assert not hit


def test_disabled_cache_never_stores(tmp_path):
    cache = ArtifactCache(None)
    assert not cache.enabled
    cache.store("ff00", "toy", 1)
    assert cache.load("ff00") == (False, None)


# -- scheduler -----------------------------------------------------------------


def test_parallel_and_sequential_toy_runs_agree(tmp_path):
    sequential = Runtime(workers=1).run(_toy_graph(), ["ab"])
    parallel = Runtime(workers=4).run(_toy_graph(), ["ab"])
    assert sequential == parallel == {"ab": "a+b"}


def test_runtime_memoizes_and_caches(tmp_path):
    runtime = Runtime(workers=1, cache_dir=str(tmp_path))
    assert runtime.run(_toy_graph(), ["ab"])["ab"] == "a+b"
    assert runtime.report.computed == 3
    # Same runtime: in-process memo.
    runtime.run(_toy_graph(), ["ab"])
    assert runtime.report.memoized == 1
    # Fresh runtime, same cache dir: disk hit without recomputing deps.
    warm = Runtime(workers=1, cache_dir=str(tmp_path))
    assert warm.run(_toy_graph(), ["ab"])["ab"] == "a+b"
    assert warm.report.all_cached()
    assert [r.status for r in warm.report.records] == ["hit"]
    # Changed params: miss, recompute.
    changed = Runtime(workers=1, cache_dir=str(tmp_path))
    assert changed.run(_toy_graph(sep="-"), ["ab"])["ab"] == "a-b"
    assert changed.report.computed == 1  # only "ab"; a/b still hit
    assert changed.report.cache_hits == 2


def test_probe_reports_memo_cache_and_compute(tmp_path):
    runtime = Runtime(workers=1, cache_dir=str(tmp_path))
    graph = _toy_graph()
    assert runtime.probe(graph, ["a", "ab"]) == {"a": "compute", "ab": "compute"}
    runtime.run(graph, ["a"])
    # "a" is memoized in-process; "ab" was never built.
    assert runtime.probe(graph, ["a", "ab"]) == {"a": "memo", "ab": "compute"}
    # A fresh runtime over the same cache dir sees the disk entry.
    warm = Runtime(workers=1, cache_dir=str(tmp_path))
    assert warm.probe(graph, ["a", "ab"]) == {"a": "cached", "ab": "compute"}
    # Probing never materializes anything.
    assert warm.report.records == []


def test_worker_exceptions_propagate():
    graph = TaskGraph()
    graph.add(Task("x", "tests.test_runtime:boom", {}))
    graph.add(Task("y", "tests.test_runtime:boom", {"v": 2}))
    with pytest.raises(RuntimeError):
        Runtime(workers=1).run(graph, ["x"])
    with pytest.raises(RuntimeError):
        Runtime(workers=2).run(graph, ["x", "y"])


# -- the suite on the runtime --------------------------------------------------

TINY = ExperimentConfig(
    name="tiny-runtime",
    seed=11,
    domain_scale=0.12,
    spider_train_per_db=6,
    spider_dev_per_db=3,
    synth_targets={"cordis": 15, "sdss": 15, "oncomx": 12},
    synth_spider_per_db=3,
    table3_sample=6,
    table4_sample=10,
    dev_limit=4,
)


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory):
    """A cache warmed by a sequential Table-2 + Table-5 subset run."""
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1, cache_dir=str(cache_dir)))
    from repro.experiments.table2 import render_table2
    from repro.experiments.table5 import compute_table5, render_table5

    table2 = render_table2(suite)
    table5 = render_table5(
        compute_table5(
            suite, systems=("valuenet",), domains=("cordis",), include_spider_control=False
        ),
        systems=("valuenet",),
    )
    return cache_dir, table2, table5


def test_parallel_matches_sequential_tables(warm_cache_dir):
    _, table2_seq, table5_seq = warm_cache_dir
    suite = Suite.from_config(TINY, runtime=Runtime(workers=4))
    from repro.experiments.table2 import render_table2
    from repro.experiments.table5 import compute_table5, render_table5

    assert render_table2(suite) == table2_seq
    table5_par = render_table5(
        compute_table5(
            suite, systems=("valuenet",), domains=("cordis",), include_spider_control=False
        ),
        systems=("valuenet",),
    )
    assert table5_par == table5_seq
    assert suite.runtime.report.computed > 0


def test_second_run_is_fully_cached(warm_cache_dir):
    cache_dir, table2_seq, _ = warm_cache_dir
    suite = Suite.from_config(TINY, runtime=Runtime(workers=2, cache_dir=str(cache_dir)))
    from repro.experiments.table2 import render_table2

    assert render_table2(suite) == table2_seq
    assert suite.runtime.report.all_cached()


def test_config_change_invalidates_cache(warm_cache_dir):
    cache_dir, _, _ = warm_cache_dir
    changed = ExperimentConfig(
        name=TINY.name,
        seed=TINY.seed + 1,  # any config knob: the seed feeds every task hash
        domain_scale=TINY.domain_scale,
        spider_train_per_db=TINY.spider_train_per_db,
        spider_dev_per_db=TINY.spider_dev_per_db,
        synth_targets=TINY.synth_targets,
        synth_spider_per_db=TINY.synth_spider_per_db,
        dev_limit=TINY.dev_limit,
    )
    suite = Suite.from_config(changed, runtime=Runtime(workers=1, cache_dir=str(cache_dir)))
    suite.domain("cordis")
    assert suite.runtime.report.computed == 1
    assert suite.runtime.report.cache_hits == 0


def test_corrupted_cache_entry_recovers(warm_cache_dir):
    cache_dir, table2_seq, _ = warm_cache_dir
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1, cache_dir=str(cache_dir)))
    key = suite.graph.content_hash("domain:cordis")
    path = suite.runtime.cache.path_for(key)
    assert path.exists()
    path.write_bytes(b"\x80garbage")
    from repro.experiments.table2 import render_table2

    assert render_table2(suite) == table2_seq  # recomputed, not crashed
    assert suite.runtime.report.computed >= 1
    assert suite.runtime.cache.corrupt == 1
    # The entry was rewritten and is healthy again.
    with path.open("rb") as fh:
        assert pickle.load(fh)["key"] == key


def test_suite_artifacts_are_memoized_per_task(warm_cache_dir):
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1))
    assert suite.domain("sdss") is suite.domain("sdss")
    assert suite.corpus is suite.corpus


def test_deprecated_entry_points_are_gone():
    # get_suite and the module constants DOMAINS/DOMAIN_BUILDERS were removed
    # after their deprecation cycles; the adapter registry replaces them.
    from repro.experiments import runner, tasks

    assert not hasattr(runner, "get_suite")
    assert not hasattr(tasks, "DOMAINS")
    assert not hasattr(tasks, "DOMAIN_BUILDERS")


def test_augment_domain_rng_and_executor_injection():
    """Injected rng reproduces the internal seeding; executors match serial."""
    import random
    from concurrent.futures import ProcessPoolExecutor

    from repro.datasets import sdss
    from repro.synthesis import augment_domain

    domain = sdss.build(scale=0.12)
    serial = augment_domain(domain, target_queries=12, seed=5)
    injected = augment_domain(domain, target_queries=12, seed=5, rng=random.Random(5))
    assert [p.sql for p in serial.pairs] == [p.sql for p in injected.pairs]
    assert [p.question for p in serial.pairs] == [p.question for p in injected.pairs]
    with ProcessPoolExecutor(max_workers=2) as pool:
        fanned = augment_domain(domain, target_queries=12, seed=5, executor=pool)
    assert [p.question for p in fanned.pairs] == [p.question for p in serial.pairs]
