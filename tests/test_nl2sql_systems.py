"""Integration tests for the three NL-to-SQL systems.

These train small systems on MiniSpider (and the SDSS domain) and verify the
behaviours Table 5 depends on: untrained systems refuse to predict, trained
systems answer realizer-style questions, grammar-constrained systems only
emit executable SQL, and in-domain data improves domain accuracy.
"""

import io
import pickle
from collections import Counter

import pytest

from repro.datasets.records import NLSQLPair
from repro.errors import ReproError, TrainingError
from repro.metrics import ExecutionAccuracy
from repro.nl2sql import SmBoP, T5Seq2Seq, ValueNet
from repro.nl2sql.lexicon import content_ngrams
from repro.semql import extract_template, sql_to_semql
from repro.spider import build_corpus
from repro.sql import parse

SYSTEMS = (ValueNet, T5Seq2Seq, SmBoP)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(train_per_db=40, dev_per_db=8)


def make_system(cls, corpus, domain=None):
    system = cls()
    for db_id, database in corpus.databases.items():
        system.register_database(db_id, database, corpus.enhanced[db_id])
    if domain is not None:
        system.register_database(domain.name, domain.database, domain.enhanced)
    return system


@pytest.mark.parametrize("cls", SYSTEMS)
def test_untrained_system_refuses(cls, corpus):
    system = make_system(cls, corpus)
    with pytest.raises(TrainingError):
        system.predict("How many singers are there?", "concert_singer")


@pytest.mark.parametrize("cls", SYSTEMS)
def test_unregistered_database_refused(cls, corpus):
    system = make_system(cls, corpus)
    with pytest.raises(TrainingError):
        system.train(
            [
                __import__("repro.datasets.records", fromlist=["NLSQLPair"]).NLSQLPair(
                    question="q", sql="SELECT 1 FROM t", db_id="unknown"
                )
            ]
        )


@pytest.mark.parametrize("cls", SYSTEMS)
def test_training_empty_raises(cls, corpus):
    system = make_system(cls, corpus)
    with pytest.raises(TrainingError):
        system.train([])


@pytest.fixture(scope="module")
def trained(corpus):
    systems = {}
    for cls in SYSTEMS:
        system = make_system(cls, corpus)
        system.train(corpus.train.pairs)
        systems[cls.name] = system
    return systems


@pytest.mark.parametrize("cls", SYSTEMS)
def test_training_parses_each_pair_once(cls, corpus, monkeypatch):
    """Training lifts each pair's SQL to SemQL once and hands the tree to
    the lexicon and the system's own hook."""
    from repro.sql import parser

    parsed = []
    tokenize = parser.tokenize

    def counting_tokenize(text):  # every parse starts here
        parsed.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    pairs = corpus.train.pairs[:80]
    make_system(cls, corpus).train(pairs)
    assert parsed == [pair.sql for pair in pairs]


def test_only_valuenet_keeps_a_template_store(trained, corpus):
    assert not hasattr(trained["smbop"], "templates")
    assert not hasattr(trained["t5-large"], "templates")
    signatures = Counter()
    for pair in corpus.train.pairs:
        try:
            z = sql_to_semql(parse(pair.sql), corpus.databases[pair.db_id].schema)
        except ReproError:
            continue
        signatures[extract_template(z).signature] += 1
    entries = trained["valuenet"].templates.entries
    assert {signature: entry.count for signature, entry in entries.items()} == signatures


@pytest.mark.parametrize("cls", SYSTEMS)
def test_out_of_semql_pair_only_counts_ngrams(cls, corpus):
    """A pair whose SQL has no SemQL tree adds its question's n-grams to the
    lexicon's frequencies and teaches the system nothing else."""
    good = NLSQLPair(
        question="Show the names of singers from France.",
        sql="SELECT name FROM singer WHERE country = 'France'",
        db_id="concert_singer",
    )
    bad = NLSQLPair(  # LIMIT without ORDER BY parses but is outside SemQL
        question="Give three quirky troubadours.",
        sql="SELECT name FROM singer LIMIT 3",
        db_id="concert_singer",
    )
    alone = make_system(cls, corpus)
    alone.train([good])
    both = make_system(cls, corpus)
    both.train([good, bad])
    before = alone._lexicons["concert_singer"]
    after = both._lexicons["concert_singer"]
    assert after.n_pairs == before.n_pairs + 1
    expected_freq = dict(before.ngram_freq)
    for ngram in set(content_ngrams(bad.question)):
        expected_freq[ngram] = expected_freq.get(ngram, 0) + 1
    assert after.ngram_freq == expected_freq
    assert after.column_assoc == before.column_assoc
    assert after.table_assoc == before.table_assoc
    assert after.value_assoc == before.value_assoc
    if cls is ValueNet:
        assert {k: e.count for k, e in both.templates.entries.items()} == {
            k: e.count for k, e in alone.templates.entries.items()
        }
    elif cls is SmBoP:
        assert both._projection_counts == alone._projection_counts
    else:
        # T5 keeps the raw pair for its unconstrained fallback, untemplated.
        assert len(both._memory) == 2
        assert both._memory[1][0] is bad
        assert both._memory[1][1:] == (None, None)


def _pickled_classes(data: bytes) -> set[tuple[str, str]]:
    """Every ``(module, name)`` global a pickle references."""
    found: set[tuple[str, str]] = set()

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            found.add((module, name))
            return super().find_class(module, name)

    Recording(io.BytesIO(data)).load()
    return found


@pytest.fixture(scope="module")
def trained_pickles(corpus):
    """Each system pickled right after training, before any link or predict."""
    pickles = {}
    for cls in SYSTEMS:
        system = make_system(cls, corpus)
        system.train(corpus.train.pairs)
        pickles[cls.name] = pickle.dumps(system)
    return pickles


@pytest.mark.parametrize("name", [cls.name for cls in SYSTEMS])
def test_trained_lexicons_are_plain_dicts(trained_pickles, name):
    """Every count table is a plain dict, so no Counter is pickled."""
    system = pickle.loads(trained_pickles[name])
    for lexicon in system._lexicons.values():
        assert type(lexicon.ngram_freq) is dict
        for table in (lexicon.column_assoc, lexicon.table_assoc, lexicon.value_assoc):
            assert type(table) is dict
            assert all(type(bucket) is dict for bucket in table.values())
    assert system._lexicons["concert_singer"].column_assoc
    assert ("collections", "Counter") not in _pickled_classes(trained_pickles[name])


@pytest.mark.parametrize("name", [cls.name for cls in SYSTEMS])
def test_trained_system_pickles_no_linker(trained_pickles, name):
    """Schema linkers are built on first use, not carried by the artifact."""
    classes = _pickled_classes(trained_pickles[name])
    assert ("repro.nl2sql.linking", "SchemaLinker") not in classes


def test_links_survive_a_pickle_round_trip(corpus):
    system = make_system(ValueNet, corpus)
    system.train(corpus.train.pairs)
    loaded = pickle.loads(pickle.dumps(system))
    for pair in corpus.dev.pairs:
        assert loaded.link(pair.question, pair.db_id) == system.link(
            pair.question, pair.db_id
        )


def test_reregistering_links_against_the_new_database(corpus, mini_db, mini_enhanced):
    system = make_system(ValueNet, corpus)
    question = "Find all STARBURST objects."
    assert not system.link(question, "concert_singer").values
    system.register_database("concert_singer", mini_db, mini_enhanced)
    links = system.link(question, "concert_singer")
    assert ("specobj", "subclass", "STARBURST") in {
        (v.table, v.column, v.value) for v in links.values
    }


def _decode_and_score(system, corpus):
    predictions = system.predict_all(corpus.dev.pairs)
    accuracy = ExecutionAccuracy()
    for pair, predicted in zip(corpus.dev.pairs, predictions):
        accuracy.add(corpus.databases[pair.db_id], pair.sql, predicted)
    return predictions, (accuracy.accuracy, accuracy.total, accuracy.triage)


@pytest.mark.parametrize("name", [cls.name for cls in SYSTEMS])
def test_decode_and_score_identical_on_row_engine(trained, corpus, name):
    """Decode ranks candidates by "executes" and "non-empty", so the
    database engine must not change a prediction or a score: the default
    (vector) engine and the row engine give identical SQL and accuracy."""
    system = trained[name]
    databases = list(corpus.databases.values())
    engines = [database.engine_name for database in databases]
    assert set(engines) == {"vector"}
    default = _decode_and_score(system, corpus)
    try:
        for database in databases:
            database.set_engine("native")
        row = _decode_and_score(system, corpus)
    finally:
        # The corpus fixture is shared across this module's tests.
        for database, engine in zip(databases, engines):
            database.set_engine(engine)
    assert row[0] == default[0]
    assert row[1] == default[1]


@pytest.mark.parametrize("name", [cls.name for cls in SYSTEMS])
def test_spider_dev_accuracy_above_floor(trained, corpus, name):
    """Every system must solve a substantial share of in-distribution dev."""
    system = trained[name]
    accuracy = ExecutionAccuracy()
    for pair in corpus.dev.pairs:
        accuracy.add(
            corpus.databases[pair.db_id], pair.sql, system.predict(pair.question, pair.db_id)
        )
    assert accuracy.accuracy > 0.25, f"{name}: {accuracy.accuracy}"


def test_valuenet_outputs_always_executable(trained, corpus):
    system = trained["valuenet"]
    for pair in corpus.dev.pairs[:40]:
        predicted = system.predict(pair.question, pair.db_id)
        if predicted is not None:
            assert corpus.databases[pair.db_id].try_execute(predicted) is not None


def test_valuenet_parses_each_candidate_once(trained, corpus, monkeypatch):
    """Decode parses a candidate's SQL once and hands the AST to both the
    execution check and the score."""
    from repro.nl2sql import valuenet
    from repro.sql import parser

    counts = {"parses": 0, "candidates": 0}
    tokenize, semql_to_sql = parser.tokenize, valuenet.semql_to_sql

    def counting_tokenize(text):  # every parse starts here
        counts["parses"] += 1
        return tokenize(text)

    def counting_semql_to_sql(*args):  # every candidate's SQL comes from here
        sql = semql_to_sql(*args)
        counts["candidates"] += 1
        return sql

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    monkeypatch.setattr(valuenet, "semql_to_sql", counting_semql_to_sql)
    system = trained["valuenet"]
    for pair in corpus.dev.pairs[:40]:
        system.predict(pair.question, pair.db_id)
    assert counts["candidates"] > 40
    assert counts["parses"] == counts["candidates"]


def test_predictions_deterministic(trained, corpus):
    system = trained["valuenet"]
    pair = corpus.dev.pairs[0]
    a = system.predict(pair.question, pair.db_id)
    b = system.predict(pair.question, pair.db_id)
    assert a == b


def test_simple_count_question(trained, corpus):
    system = trained["valuenet"]
    predicted = system.predict("How many singer are there?", "concert_singer")
    assert predicted is not None
    result = corpus.databases["concert_singer"].execute(predicted)
    gold = corpus.databases["concert_singer"].execute("SELECT COUNT(*) FROM singer")
    assert result.to_multiset() == gold.to_multiset()


def test_domain_training_improves_domain_accuracy(corpus, sdss_domain):
    """The core Table-5 dynamic, asserted as an inequality (not a number)."""
    from repro.synthesis import augment_domain

    synth = sdss_domain.synth or augment_domain(sdss_domain, target_queries=150)

    def accuracy_for(pairs):
        system = make_system(ValueNet, corpus, domain=sdss_domain)
        system.train(pairs)
        accuracy = ExecutionAccuracy()
        for pair in sdss_domain.dev.pairs[:60]:
            accuracy.add(
                sdss_domain.database, pair.sql, system.predict(pair.question, pair.db_id)
            )
        return accuracy.accuracy

    zero = accuracy_for(list(corpus.train.pairs))
    augmented = accuracy_for(
        list(corpus.train.pairs) + list(sdss_domain.seed.pairs) + list(synth.pairs)
    )
    assert augmented > zero


def test_smbop_projection_prior_learns(corpus, sdss_domain):
    system = make_system(SmBoP, corpus, domain=sdss_domain)
    system.train(list(corpus.train.pairs) + list(sdss_domain.seed.pairs))
    prior = system._projection_prior("sdss", "specobj")
    assert prior and prior[0] in {"specobjid", "z", "class", "ra", "dec", "bestobjid"}
