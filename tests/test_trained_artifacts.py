"""Thin trained artifacts: what a graph-trained system stores, and that
attaching its target's databases and lexicons restores the direct path.

The suite graph lifts each training split once (``split:`` tasks), folds
each split's lexicons once (``lexicon:`` tasks) and trains systems on the
prepared trees (``train:`` tasks); eval cells, ``Suite.train_regime`` and
the serving loader attach databases and lexicons (``tasks.attach_target``).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import registry
from repro.experiments.runner import Suite
from repro.experiments.tasks import SYSTEMS
from repro.nl2sql import SYSTEM_CLASSES
from repro.nl2sql.base import lift
from repro.nl2sql.lexicon import fold, merged
from repro.runtime import Runtime
from repro.spider import build_corpus
from tests.test_runtime import TINY

CORDIS = dataclasses.replace(TINY, domains=("cordis",))
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Writes a cold cache of CORDIS's Table 5 grid and Tables 1-4 into argv[1]
#: from the config fields in argv[2] (JSON).
_COLD_RUN = """
import json
import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Suite
from repro.experiments.tasks import SYSTEMS, eval_grid, table_task
from repro.runtime import Runtime

fields = json.loads(sys.argv[2])
config = ExperimentConfig(**{**fields, "domains": tuple(fields["domains"])})
suite = Suite.from_config(config, runtime=Runtime(workers=1, cache_dir=sys.argv[1]))
suite.ensure(eval_grid(SYSTEMS, config.domains) + [table_task(n) for n in "1234"])
"""


@pytest.fixture(scope="module")
def hash_seed_caches(tmp_path_factory):
    """Two cold caches of the same job, under ``PYTHONHASHSEED`` 0 and 1."""
    fields = json.dumps(dataclasses.asdict(CORDIS))
    caches = []
    for seed in ("0", "1"):
        cache = tmp_path_factory.mktemp(f"hashseed{seed}")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        subprocess.run(
            [sys.executable, "-c", _COLD_RUN, str(cache), fields],
            env=env, check=True, timeout=600,
        )
        caches.append(cache)
    return caches


def _entries(cache: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(cache)): path.read_bytes()
        for path in sorted(cache.rglob("*"))
        if path.is_file()
    }


def test_cache_bytes_do_not_depend_on_the_hash_seed(hash_seed_caches):
    first, second = (_entries(cache) for cache in hash_seed_caches)
    assert first and first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []


class _Recording(pickle.Unpickler):
    """An unpickler that records every ``(module, name)`` global it loads."""

    def __init__(self, handle):
        super().__init__(handle)
        self.found: set[tuple[str, str]] = set()

    def find_class(self, module, name):
        self.found.add((module, name))
        return super().find_class(module, name)


def _train_artifacts(cache: Path):
    """``(task, globals its artifact pickle references)`` per ``train:`` entry."""
    for path in sorted(cache.rglob("*")):
        if not path.is_file():
            continue
        handle = io.BytesIO(path.read_bytes())
        header = pickle.load(handle)
        if header["task"].startswith("train:"):
            recording = _Recording(handle)
            recording.load()
            yield header["task"], recording.found


def test_train_artifacts_hold_no_database_lexicon_or_array(hash_seed_caches):
    seen = []
    for task, found in _train_artifacts(hash_seed_caches[0]):
        seen.append(task)
        assert ("repro.engine.database", "Database") not in found, task
        assert ("repro.nl2sql.lexicon", "LearnedLexicon") not in found, task
        assert not [module for module, _ in found if module.split(".")[0] == "numpy"], task
    # The zero regimes of cordis and Spider share one key, so one entry.
    assert len(seen) == 3 * (4 + 3 - 1)


@pytest.fixture(scope="module")
def graph_suite():
    return Suite.from_config(CORDIS, runtime=Runtime(workers=1))


def _direct(system_name: str, suite, domain: str | None, pairs):
    """A system trained the direct way: register every database, train."""
    system = SYSTEM_CLASSES[system_name]()
    corpus = suite.corpus
    for db_id, database in corpus.databases.items():
        system.register_database(db_id, database, corpus.enhanced[db_id])
    if domain is not None:
        hosted = suite.domain(domain)
        system.register_database(domain, hosted.database, hosted.enhanced)
    system.train(pairs)
    return system


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("domain, regime", [("cordis", "both"), (None, "plus-synth")])
def test_attached_graph_system_predicts_as_direct_training(
    graph_suite, system_name, domain, regime
):
    suite = graph_suite
    pairs = list(suite.corpus.train.pairs)
    if domain is None:
        pairs += suite.synth_spider.pairs
    else:
        pairs += suite.domain(domain).seed.pairs + suite.domain(domain).synth.pairs
    direct = _direct(system_name, suite, domain, pairs)
    graph = suite.train_regime(system_name, domain, regime)
    dev = suite.dev_pairs(domain)
    assert len(dev) > 0
    assert graph.predict_all(dev) == direct.predict_all(dev)
    attached = set(graph._contexts)
    assert attached == ({domain} if domain else set(suite.corpus.databases))


def test_attaching_leaves_the_trained_object_unchanged(graph_suite):
    """The cordis and Spider zero regimes share one trained object in a
    process; each consumer attaches its own target to its own copy."""
    from repro.experiments.tasks import train_task

    suite = graph_suite
    shared = suite.artifact(train_task("valuenet", "cordis", "zero"))
    assert shared is suite.artifact(train_task("valuenet", "spider", "zero"))
    cordis = suite.train_regime("valuenet", "cordis", "zero")
    spider = suite.train_regime("valuenet", None, "zero")
    again = suite.train_regime("valuenet", "cordis", "zero")
    assert len({id(shared), id(cordis), id(spider), id(again)}) == 4
    assert shared._contexts == {} and shared._lexicons == {}
    assert set(cordis._contexts) == set(again._contexts) == {"cordis"}
    assert set(spider._contexts) == set(suite.corpus.databases)
    dev = suite.dev_pairs("cordis")
    assert again.predict_all(dev) == cordis.predict_all(dev)


def _ordered(lexicon) -> tuple:
    """A lexicon's contents with every dict's insertion order."""

    def table(assoc):
        return [(ngram, list(bucket.items())) for ngram, bucket in assoc.items()]

    return (
        lexicon.db_id,
        lexicon.n_pairs,
        list(lexicon.ngram_freq.items()),
        table(lexicon.column_assoc),
        table(lexicon.table_assoc),
        table(lexicon.value_assoc),
    )


@pytest.fixture(scope="module")
def lifted():
    corpus = build_corpus(train_per_db=8, dev_per_db=1)
    pairs = list(corpus.train.pairs)
    schemas = {db_id: database.schema for db_id, database in corpus.databases.items()}
    return pairs, lift(pairs, schemas)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_merged_split_lexicons_equal_one_fold(lifted, data):
    """Folding consecutive runs of pairs apart and merging them in order
    gives the lexicons of one fold over all the pairs, dict order included."""
    pairs, trees = lifted
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pairs) - 1), max_size=4)))
    bounds = [0, *cuts, len(pairs)]
    parts = [
        fold({}, pairs[start:end], trees[start:end])
        for start, end in zip(bounds, bounds[1:])
    ]
    before = [{db_id: _ordered(lex) for db_id, lex in part.items()} for part in parts]
    whole = fold({}, pairs, trees)
    for db_id, lexicon in whole.items():
        combined = merged(db_id, [part[db_id] for part in parts if db_id in part])
        assert _ordered(combined) == _ordered(lexicon)
    after = [{db_id: _ordered(lex) for db_id, lex in part.items()} for part in parts]
    assert after == before
    assert _ordered(merged("nowhere", [])) == ("nowhere", 0, [], [], [], [])


def test_warm_serving_load_computes_nothing(tmp_path):
    from repro.serving import load_backends

    cold_suite = Suite.from_config(CORDIS, runtime=Runtime(workers=1, cache_dir=str(tmp_path)))
    cold = load_backends(cold_suite, with_fallback=False)
    assert not cold.warm

    suite = Suite.from_config(CORDIS, runtime=Runtime(workers=1, cache_dir=str(tmp_path)))
    read: list[str] = []
    ensure, artifact = suite.ensure, suite.artifact

    def recording_ensure(names):
        read.extend(names)
        return ensure(names)

    def recording_artifact(name):
        read.append(name)
        return artifact(name)

    suite.ensure, suite.artifact = recording_ensure, recording_artifact
    bundle = load_backends(suite, with_fallback=False)
    assert bundle.warm
    assert suite.runtime.report.computed == 0
    assert set(read) <= set(registry.serving_tasks("valuenet", ("cordis",), "both"))
    system = bundle.backends["cordis"].system
    assert set(system._contexts) == {"cordis"}
    questions = [pair.question for pair in suite.dev_pairs("cordis")]
    served = cold.backends["cordis"].system
    assert system.predict_batch(questions, "cordis") == served.predict_batch(
        questions, "cordis"
    )

