"""Behavioural unit tests for ValueNet's decoding."""

import pytest

from repro.datasets.records import NLSQLPair
from repro.nl2sql import ValueNet
from repro.nl2sql.linking import Links, ValueLink
from repro.sql import parse


@pytest.fixture()
def valuenet(mini_db, mini_enhanced):
    system = ValueNet()
    system.register_database("mini_sdss", mini_db, mini_enhanced)
    system.train(
        [
            NLSQLPair(
                question="Find the redshift of spectroscopic objects whose spectroscopic class is GALAXY.",
                sql="SELECT z FROM specobj WHERE class = 'GALAXY'",
                db_id="mini_sdss",
            ),
            NLSQLPair(
                question="Show the right ascension of objects with redshift greater than 0.5.",
                sql="SELECT ra FROM specobj WHERE z > 0.5",
                db_id="mini_sdss",
            ),
            NLSQLPair(
                question="How many spectroscopic objects are there?",
                sql="SELECT COUNT(*) FROM specobj",
                db_id="mini_sdss",
            ),
        ]
    )
    return system


def test_prediction_grounds_value(valuenet, mini_db):
    predicted = valuenet.predict(
        "Find the redshift of spectroscopic objects whose spectroscopic class is STAR.",
        "mini_sdss",
    )
    assert predicted is not None
    assert "'STAR'" in predicted
    gold = mini_db.execute("SELECT z FROM specobj WHERE class = 'STAR'")
    assert mini_db.execute(predicted).to_multiset() == gold.to_multiset()


def test_prediction_is_executable_or_none(valuenet, mini_db):
    for question in (
        "Show me something entirely unrelated to anything.",
        "Find the redshift of objects whose class is NONEXISTENT_VALUE_XYZ.",
    ):
        predicted = valuenet.predict(question, "mini_sdss")
        if predicted is not None:
            assert mini_db.try_execute(predicted) is not None


def _score(valuenet, rank, links, sql):
    """Score a non-empty candidate the way decode does, with its parsed AST."""
    return valuenet._score(rank, links, sql, True, parse(sql))


def test_score_penalises_hallucinated_literals(valuenet):
    links = Links()
    links.values = [ValueLink(table="specobj", column="class", value="STAR", score=2.0)]
    links.numbers = []
    grounded = _score(valuenet, 0, links, "SELECT z FROM specobj WHERE class = 'STAR'")
    hallucinated = _score(
        valuenet, 0, links, "SELECT z FROM specobj WHERE class = 'STAR' AND ra > 99"
    )
    assert grounded > hallucinated


def test_score_prefers_higher_rank(valuenet):
    links = Links()
    assert _score(valuenet, 0, links, "SELECT z FROM specobj") > _score(
        valuenet, 2, links, "SELECT z FROM specobj"
    )


def test_template_store_shared_across_databases(valuenet, mini_db, mini_enhanced):
    """Templates are anonymized — training on one database must make the
    structure available for another (the transfer that gives nonzero
    zero-shot accuracy in Table 5)."""
    valuenet.register_database("other", mini_db, mini_enhanced)
    predicted = valuenet.predict(
        "How many photometric objects are there?", "other"
    )
    assert predicted is not None
    assert "COUNT(*)" in predicted
