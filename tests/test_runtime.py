"""Tests for the task-graph runtime: graph hashing, cache, scheduler and the
determinism/caching guarantees of the suite built on top of it."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Suite
from repro.runtime import ArtifactCache, Pickled, Runtime, Task, TaskGraph, derive_seed

# -- toy task bodies (module-level so worker processes can import them) --------


def emit(params, inputs):
    return params["value"]


def join(params, inputs):
    return params.get("sep", "+").join(inputs[role] for role in sorted(inputs))


def boom(params, inputs):
    raise RuntimeError("task failed")


#: ``(pid, value)`` of every :class:`Token` unpickled, in order.
UNPICKLED_IN: list[tuple] = []


class Token:
    """A toy artifact that records which process unpickles it."""

    def __init__(self, value):
        self.value = value

    def __getstate__(self):
        return {"value": self.value}

    def __setstate__(self, state):
        self.value = state["value"]
        UNPICKLED_IN.append((os.getpid(), self.value))

    def __eq__(self, other):
        return isinstance(other, Token) and other.value == self.value


def make_token(params, inputs):
    return Token(params["value"])


def wrap_token(params, inputs):
    return Token([inputs["inner"].value])


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
    assert cache.corrupt == 2
    assert not cache.path_for("bb22").exists()

    # An entry is a {key, task} header pickle, then the artifact's pickle;
    # already-pickled bytes are written as they are.
    artifact = {"x": list(range(1000))}
    blob = Pickled.of(artifact)
    size = cache.store("cc33", "toy", blob)
    path = cache.path_for("cc33")
    assert size == path.stat().st_size
    with path.open("rb") as handle:
        assert pickle.load(handle) == {"key": "cc33", "task": "toy"}
        header_size = handle.tell()
        assert handle.read() == blob.data
    assert cache.store("dd44", "toy", artifact) == size
    assert cache.load("dd44") == (True, artifact)
    # A truncation inside the artifact part is corruption.
    data = path.read_bytes()
    path.write_bytes(data[: header_size + len(blob.data) // 2])
    assert cache.load("cc33") == (False, None)
    assert cache.corrupt == 3
    assert not path.exists()
    # So is a whole header over another key; its artifact is never unpickled.
    path.write_bytes(pickle.dumps({"key": "ee55", "task": "toy"}) + pickle.dumps(Token(1)))
    UNPICKLED_IN.clear()
    assert cache.load("cc33") == (False, None)
    assert cache.corrupt == 4
    assert not path.exists()
    assert UNPICKLED_IN == []


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


@pytest.mark.parametrize("workers", [1, 2])
def test_tasks_sharing_a_key_compute_once_per_run(workers):
    """Two names with one content hash: the first planned computes, the
    other is satisfied by it, and dependents of either wait for it."""
    graph = TaskGraph()
    graph.add(Task("a", "tests.test_runtime:emit", {"value": "a"}))
    graph.add(Task("twin", "tests.test_runtime:emit", {"value": "a"}))
    graph.add(Task("b", "tests.test_runtime:emit", {"value": "b"}))
    graph.add(Task("ab", "tests.test_runtime:join", {}, deps=(("x", "twin"), ("y", "b"))))
    assert graph.content_hash("a") == graph.content_hash("twin")
    runtime = Runtime(workers=workers)
    assert runtime.run(graph, ["a", "twin", "ab"]) == {"a": "a", "twin": "a", "ab": "a+b"}
    statuses = {record.name: record.status for record in runtime.report.records}
    assert statuses == {"a": "computed", "twin": "memo", "b": "computed", "ab": "computed"}


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


def _token_graph():
    """Two tasks: ``inner`` feeds ``outer``."""
    graph = TaskGraph()
    graph.add(Task("inner", "tests.test_runtime:make_token", {"value": 7}))
    graph.add(Task("outer", "tests.test_runtime:wrap_token", {}, deps=(("inner", "inner"),)))
    return graph


def test_pool_artifacts_stay_pickled_in_the_parent(tmp_path):
    runtime = Runtime(workers=2, cache_dir=str(tmp_path))
    UNPICKLED_IN.clear()
    assert runtime.run(_token_graph(), ["outer"]) == {"outer": Token([7])}
    # "inner" was made in one worker and consumed by another pool task:
    # only that worker opened it, never the parent.
    parent = os.getpid()
    assert (parent, 7) not in UNPICKLED_IN
    assert UNPICKLED_IN.count((parent, [7])) == 1
    # The cache holds the workers' bytes, readable by a fresh runtime.
    warm = Runtime(workers=1, cache_dir=str(tmp_path))
    assert warm.run(_token_graph(), ["inner", "outer"]) == {
        "inner": Token(7), "outer": Token([7]),
    }
    assert warm.report.all_cached()


def test_target_is_unpickled_in_the_parent_once():
    runtime = Runtime(workers=2)
    UNPICKLED_IN.clear()
    first = runtime.run(_token_graph(), ["outer"])["outer"]
    assert runtime.run(_token_graph(), ["outer"])["outer"] is first
    assert UNPICKLED_IN == [(os.getpid(), [7])]


def test_inline_run_reuses_pool_bytes_and_unpickles_them_once():
    graph = _token_graph()
    for n in (2, 3):
        graph.add(Task(f"outer{n}", "tests.test_runtime:wrap_token", {"n": n},
                       deps=(("inner", "inner"),)))
    runtime = Runtime(workers=2)
    assert runtime.run(graph, ["outer"]) == {"outer": Token([7])}
    UNPICKLED_IN.clear()
    # A single pending task runs inline, on the memoized pool bytes of
    # "inner": the first inline consumer opens them, later ones reuse the
    # object, and the inline artifacts themselves are never pickled.
    assert runtime.run(graph, ["outer2"]) == {"outer2": Token([7])}
    assert runtime.run(graph, ["outer3", "inner"]) == {
        "outer3": Token([7]), "inner": Token(7),
    }
    statuses = [r.status for r in runtime.report.records[-4:]]
    assert statuses == ["memo", "computed", "memo", "computed"]
    assert UNPICKLED_IN == [(os.getpid(), 7)]
    sequential = Runtime(workers=1).run(graph, ["outer", "outer2", "outer3"])
    assert sequential == {name: Token([7]) for name in ("outer", "outer2", "outer3")}


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


def _render_tables(suite) -> dict[str, str]:
    """Tables 1-4 and a one-system, one-domain Table 5, rendered."""
    from repro.experiments import registry
    from repro.experiments.table5 import compute_table5, render_table5

    texts = {number: registry.render(number, suite) for number in ("1", "2", "3", "4")}
    texts["5"] = render_table5(
        compute_table5(
            suite, systems=("valuenet",), domains=("cordis",), include_spider_control=False
        ),
        systems=("valuenet",),
    )
    return texts


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory):
    """A cache warmed by a sequential run of Tables 1-4 and a Table-5 subset."""
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1, cache_dir=str(cache_dir)))
    return cache_dir, _render_tables(suite)


def test_parallel_matches_sequential_tables(warm_cache_dir):
    _, sequential = warm_cache_dir
    from repro.experiments.tasks import eval_grid, table_task

    suite = Suite.from_config(TINY, runtime=Runtime(workers=4))
    # One batch, so the table tasks run in pool workers next to training.
    suite.ensure(
        [table_task(number) for number in ("1", "2", "3", "4")]
        + eval_grid(("valuenet",), ("cordis",), include_spider_control=False)
    )
    assert _render_tables(suite) == sequential
    assert suite.runtime.report.computed > 0


def test_second_run_is_fully_cached(warm_cache_dir):
    cache_dir, sequential = warm_cache_dir
    suite = Suite.from_config(TINY, runtime=Runtime(workers=2, cache_dir=str(cache_dir)))
    from repro.experiments.table2 import render_table2

    assert render_table2(suite) == sequential["2"]
    assert suite.runtime.report.all_cached()


def test_config_change_invalidates_cache(warm_cache_dir):
    cache_dir, _ = warm_cache_dir
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
    cache_dir, sequential = warm_cache_dir
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1, cache_dir=str(cache_dir)))
    key = suite.graph.content_hash("domain:cordis")
    path = suite.runtime.cache.path_for(key)
    assert path.exists()
    path.write_bytes(b"\x80garbage")
    from repro.experiments.table2 import compute_table2, render_table2

    # Table 2 renders from its own cached task, so read the domain as the
    # eval cells and the serving loader do.
    domain = suite.domain("cordis")  # recomputed, not crashed
    assert render_table2(suite) == sequential["2"]
    rows = {row["dataset"]: row for row in compute_table2(suite)}
    for split in (domain.seed, domain.dev, domain.synth):
        assert rows[split.name] == {
            "dataset": split.name, "total": len(split), **split.hardness_counts()
        }
    assert suite.runtime.report.computed >= 1
    assert suite.runtime.cache.corrupt == 1
    # The entry was rewritten and is healthy again.
    with path.open("rb") as fh:
        assert pickle.load(fh)["key"] == key


def test_suite_artifacts_are_memoized_per_task(warm_cache_dir):
    suite = Suite.from_config(TINY, runtime=Runtime(workers=1))
    assert suite.domain("sdss") is suite.domain("sdss")
    assert suite.corpus is suite.corpus


def test_table_task_keys_follow_the_config_fields_they_read():
    import dataclasses

    from repro.experiments.tasks import build_suite_graph, table_task

    def keys(**changes):
        graph = build_suite_graph(dataclasses.replace(TINY, **changes))
        return {number: graph.content_hash(table_task(number)) for number in "1234"}

    base = keys()

    def changed(**changes):
        other = keys(**changes)
        return {number for number in base if other[number] != base[number]}

    assert changed(table3_sample=TINY.table3_sample + 1) == {"3"}
    assert changed(table4_sample=TINY.table4_sample + 1) == {"4"}
    assert changed(dev_limit=TINY.dev_limit + 1) == {"3"}
    # The seed also reseeds the corpus and domains, so every table moves.
    assert {"3", "4"} <= changed(seed=TINY.seed + 1)
    assert changed(domains=("cordis", "sdss")) == set("1234")
    # A table lists its domains in config order, so the order is in the key.
    assert changed(domains=("sdss", "cordis", "oncomx")) == set("1234")

    graph = build_suite_graph(TINY)
    params = {number: set(graph.task(table_task(number)).params) for number in "1234"}
    assert params == {
        "1": {"domains"},
        "2": {"domains"},
        "3": {"domains", "seed", "table3_sample", "dev_limit"},
        "4": {"domains", "seed", "table4_sample"},
    }


#: Renders every table from the cache in argv[1] for the config whose fields
#: argv[2] holds (JSON); prints the texts, the heavy packages it loaded and
#: how each task was satisfied.
_WARM_RENDER = """
import json
import sys

from repro.experiments import registry
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Suite
from repro.runtime import Runtime

fields = json.loads(sys.argv[2])
config = ExperimentConfig(**{**fields, "domains": tuple(fields["domains"])})
suite = Suite.from_config(config, runtime=Runtime(workers=2, cache_dir=sys.argv[1]))
tables = registry.available(kind="table")
suite.ensure([task for n in tables for task in registry.required_tasks(n, config)])
texts = {n: registry.render(n, suite) for n in tables}
heavy = ("numpy", "repro.nl2sql", "repro.synthesis", "repro.llm", "repro.analysis")
print(json.dumps({
    "texts": texts,
    "loaded": [name for name in heavy if name in sys.modules],
    "records": [[r.name, r.status] for r in suite.runtime.report.records],
}))
"""


def test_warm_render_loads_only_table_and_eval_artifacts(tmp_path):
    """A warm ``tables 1-5`` formats cached rows: it loads no corpus, domain
    or trained system, and imports none of the packages that compute them."""
    import dataclasses
    import json
    import subprocess
    import sys
    from pathlib import Path

    from repro.experiments import registry

    config = dataclasses.replace(TINY, domains=("cordis",))
    suite = Suite.from_config(config, runtime=Runtime(workers=2, cache_dir=str(tmp_path)))
    tables = registry.available(kind="table")
    suite.ensure([task for n in tables for task in registry.required_tasks(n, config)])
    cold = {n: registry.render(n, suite) for n in tables}

    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [
            sys.executable, "-c", _WARM_RENDER,
            str(tmp_path), json.dumps(dataclasses.asdict(config)),
        ],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert proc.returncode == 0, proc.stderr
    warm = json.loads(proc.stdout)
    assert warm["texts"] == cold
    assert warm["loaded"] == []
    assert warm["records"]
    for name, status in warm["records"]:
        assert status == "hit", name
        assert name.startswith(("table:", "eval:")), name


def test_deprecated_entry_points_are_gone():
    # get_suite and the module constants DOMAINS/DOMAIN_BUILDERS were removed
    # after their deprecation cycles; the adapter registry replaces them.
    from repro.experiments import runner, tasks

    assert not hasattr(runner, "get_suite")
    assert not hasattr(tasks, "DOMAINS")
    assert not hasattr(tasks, "DOMAIN_BUILDERS")


def test_augment_domain_rng_and_executor_injection():
    """An injected rng reproduces the pipeline's own seeding."""
    import random

    from repro.datasets import sdss
    from repro.synthesis import augment_domain

    domain = sdss.build(scale=0.12)
    serial = augment_domain(domain, target_queries=12, seed=5)
    injected = augment_domain(domain, target_queries=12, seed=5, rng=random.Random(5))
    assert [p.sql for p in serial.pairs] == [p.sql for p in injected.pairs]
    assert [p.question for p in serial.pairs] == [p.question for p in injected.pairs]
