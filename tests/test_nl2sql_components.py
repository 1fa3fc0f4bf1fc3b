"""Unit tests for the NL-to-SQL building blocks: features, learned lexicon,
schema linking and guided instantiation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.nl2sql.features import (
    comparator_intents,
    extract_limit,
    extract_numbers,
    having_hint,
    question_features,
    question_structure,
)
from repro.nl2sql.lexicon import LearnedLexicon, content_ngrams
from repro.nl2sql.linking import SchemaLinker
from repro.nl2sql.structure import compatibility, template_structure
from repro.semql import extract_template, sql_to_semql
from repro.sql import parse


# --- features ----------------------------------------------------------------


def test_extract_numbers_handles_punctuation():
    assert extract_numbers("between 20 and 66.") == [20.0, 66.0]
    assert extract_numbers("a value of 2.22, ok") == [2.22]
    assert extract_numbers("none here") == []


def test_extract_limit_phrasings():
    assert extract_limit("the top 5 projects") == 5
    assert extract_limit("the 3 closest pairs") == 3
    assert extract_limit("all the projects") is None


def test_comparator_intents_in_order():
    intents = comparator_intents(
        "whose cost is greater than 10 and year is at most 2020"
    )
    assert intents == [">", "<="]


def test_comparator_between():
    assert comparator_intents("redshift between 0.1 and 0.4") == ["between"]


def test_having_hint():
    assert having_hint("classes whose number of records is greater than 10")
    assert not having_hint("the number of records for each class")


def test_question_features_vector_shape():
    vector = question_features("How many galaxies are there?")
    assert vector.shape[0] > 10
    assert 0.0 <= vector.max() <= 1.0


def test_question_structure_aggregates():
    struct = question_structure("What is the average redshift of galaxies?")
    assert struct["aggs"] == {"avg"}


def test_question_structure_superlative_vs_max():
    sup = question_structure("the galaxy with the highest redshift")
    agg = question_structure("the maximum redshift of galaxies")
    assert sup["superlative"] and "max" not in sup["aggs"]
    assert not agg["superlative"] and "max" in agg["aggs"]


def test_question_structure_at_most_is_not_max():
    struct = question_structure("stadiums whose id is at most 6")
    assert "max" not in struct["aggs"]


def test_question_structure_top_k_is_not_max():
    struct = question_structure("the top 5 projects by total cost")
    assert struct["limit_k"] == 5
    assert "max" not in struct["aggs"]


# --- learned lexicon ----------------------------------------------------------------


def test_content_ngrams_skip_stopword_only():
    ngrams = content_ngrams("find the redshift of galaxies")
    assert "redshift" in ngrams
    assert "the" not in ngrams
    assert "redshift of galaxies" in ngrams


@pytest.fixture()
def trained_lexicon(mini_schema):
    lexicon = LearnedLexicon(db_id="mini_sdss")
    for _ in range(4):  # repetition builds association confidence
        lexicon.observe(
            "Find the quasars with high redshift.",
            "SELECT specobjid FROM specobj WHERE class = 'QSO'",
            mini_schema,
        )
        lexicon.observe(
            "Show the redshift of galaxies.",
            "SELECT z FROM specobj WHERE class = 'GALAXY'",
            mini_schema,
        )
    return lexicon


def test_value_association_learned(trained_lexicon):
    scores = trained_lexicon.value_scores("are there any quasars here")
    assert ("specobj", "class", "qso") in scores


def test_value_association_skips_numbers(mini_schema):
    lexicon = LearnedLexicon(db_id="d")
    for _ in range(4):
        lexicon.observe(
            "projects with credits equal to 6",
            "SELECT z FROM specobj WHERE z = 6",
            mini_schema,
        )
    assert not lexicon.value_scores("projects with credits")


def test_column_association_learned(trained_lexicon):
    scores = trained_lexicon.column_scores("what is the redshift")
    assert ("specobj", "z") in scores


def test_out_of_grammar_sql_still_counts_frequency(mini_schema):
    lexicon = LearnedLexicon(db_id="d")
    ok = lexicon.observe("weird question", "SELECT a FROM nope WHERE", mini_schema)
    assert not ok
    assert lexicon.n_pairs == 1


#: Trains a lexicon on the cordis seed split and prints, as JSON, what
#: most_common() picks for every n-gram plus what scoring derives from those
#: picks on each dev question.
_LEXICON_PICKS = """
import json
from repro import adapters
from repro.nl2sql.lexicon import LearnedLexicon

domain = adapters.get_adapter("cordis").build(scale=0.2)
lexicon = LearnedLexicon(db_id=domain.name)
for pair in domain.seed.pairs:
    lexicon.observe(pair.question, pair.sql, domain.database.schema)
tables = {
    "column": lexicon.column_assoc,
    "table": lexicon.table_assoc,
    "value": lexicon.value_assoc,
}
picks = {
    name: {ngram: bucket.most_common(1)[0][0] for ngram, bucket in assoc.items()}
    for name, assoc in tables.items()
}
picks["dev"] = [
    [
        lexicon.concentrated_column_ngrams(pair.question),
        lexicon.column_scores(pair.question).most_common(),
        lexicon.value_scores(pair.question).most_common(),
    ]
    for pair in domain.dev.pairs
]
print(json.dumps(picks, sort_keys=True))
"""


def test_lexicon_picks_do_not_depend_on_the_hash_seed():
    """most_common() breaks ties by insertion order, so training must fill
    the counters in an order the interpreter's hash seed cannot change."""
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _LEXICON_PICKS],
            capture_output=True,
            text=True,
            cwd=root,
            env={
                "PYTHONPATH": str(root / "src"),
                "PYTHONHASHSEED": hash_seed,
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["column"] and outputs[0]["value"]
    assert outputs[0] == outputs[1]


# --- schema linking ------------------------------------------------------------------


@pytest.fixture()
def linker(mini_db, mini_enhanced):
    return SchemaLinker(mini_db, mini_enhanced)


def test_static_column_link(linker):
    links = linker.link("Find the redshift of spectroscopic objects.")
    assert ("specobj", "z") in links.columns
    assert "specobj" in links.table_mentions


def test_content_value_link(linker):
    links = linker.link("Find all STARBURST objects.")
    assert any(
        v.table == "specobj" and v.column == "subclass" and v.value == "STARBURST"
        for v in links.values
    )


def test_numbers_extracted(linker):
    links = linker.link("redshift above 0.5 but below 1")
    assert links.numbers == [0.5, 1.0]


def test_boolean_value_link(mini_db, mini_enhanced):
    # The mini schema has no boolean column; build a quick one inline.
    from repro.engine import create_database
    from repro.schema.model import Column, ColumnType, Schema, TableDef

    schema = Schema(
        name="b",
        tables=(
            TableDef(
                "person",
                (
                    Column("person_id", ColumnType.INTEGER),
                    Column("is_member", ColumnType.BOOLEAN, alias="is member"),
                ),
            ),
        ),
    )
    db = create_database(schema, {"person": [(1, True), (2, False)]})
    from repro.schema.introspect import profile_database

    linker = SchemaLinker(db, profile_database(db))
    links = linker.link("people whose is member is false")
    assert any(v.value is False for v in links.values)


def test_learned_value_feeds_links(linker, trained_lexicon):
    links = linker.link("Find all quasars.", learned=trained_lexicon)
    assert any(
        v.table == "specobj" and v.column == "class" and v.value == "QSO"
        for v in links.values
    )


def test_mention_order_follows_question(linker):
    links = linker.link(
        "Find the right ascension and redshift of spectroscopic objects."
    )
    order = links.mention_order()
    assert order.index(("specobj", "ra")) < order.index(("specobj", "z"))


def test_table_mention_shadowed_by_column_phrase(linker):
    # "neighbor mode" is a neighbors column; the bare word overlap must not
    # promote a phantom table mention for a table named inside the phrase.
    links = linker.link("Find the neighbor mode of nearest neighbors.")
    assert ("neighbors", "neighbormode") in links.columns


def test_value_equal_to_table_phrase_suppressed(mini_db, mini_enhanced):
    linker = SchemaLinker(mini_db, mini_enhanced)
    # 'GALAXY' remains a value link; a value spelled like a mentioned column
    # phrase would be dropped (exercised via the OncoMX-style 'gene' case in
    # integration tests) — here we just assert GALAXY survives.
    links = linker.link("spectroscopic objects of class GALAXY")
    assert any(v.value == "GALAXY" for v in links.values)


# --- template structure ---------------------------------------------------------------


def test_template_structure_counts(mini_schema):
    z = sql_to_semql(
        parse("SELECT z FROM specobj WHERE class = 'GALAXY' AND z > 0.5"), mini_schema
    )
    structure = template_structure(extract_template(z))
    assert structure.numbers_needed == 1
    assert structure.eq_values_needed == 1
    assert structure.n_tables == 1
    assert not structure.has_group


def test_template_structure_having(mini_schema):
    z = sql_to_semql(
        parse("SELECT class FROM specobj GROUP BY class HAVING COUNT(*) > 2"),
        mini_schema,
    )
    structure = template_structure(extract_template(z))
    assert structure.has_agg_condition
    assert structure.has_group


def test_compatibility_prefers_matching_arity(mini_schema):
    eq_tpl = template_structure(
        extract_template(
            sql_to_semql(parse("SELECT z FROM specobj WHERE ra = 120.0"), mini_schema)
        )
    )
    gt_tpl = template_structure(
        extract_template(
            sql_to_semql(parse("SELECT z FROM specobj WHERE ra > 120.0"), mini_schema)
        )
    )
    no_comparator = question_structure("objects with right ascension 120")
    with_comparator = question_structure("objects with right ascension above 120")
    assert compatibility(no_comparator, eq_tpl) > compatibility(no_comparator, gt_tpl)
    assert compatibility(with_comparator, gt_tpl) > compatibility(with_comparator, eq_tpl)
