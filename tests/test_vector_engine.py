"""Vector engine: byte-identity with the row engine, caching, fallback.

The vector engine's contract is *exact* equality with the row engine —
same columns, same rows, same order, same value objects — on every query
it plans.  These tests check that contract three ways: a hypothesis sweep
over generated queries (filters, joins, aggregates, set-relevant ORDER BY
ties), the real SDSS gold split, and targeted cases for the caching and
fallback machinery.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import create_database
from repro.engine.executor import Executor
from repro.engine.vector import VectorEngine
from repro.engine.vector.planner import VectorUnsupported
from repro.obs import Tracer
from repro.sql import parse


def _counter(engine: VectorEngine, name: str) -> float:
    entry = engine.metrics.snapshot().get(f"engine.vector.{name}")
    return entry["value"] if entry else 0.0


def _assert_identical(database, engine: VectorEngine, sql: str) -> None:
    row = Executor(database).execute(parse(sql))
    vec = engine.execute(parse(sql))
    assert list(vec.columns) == list(row.columns), sql
    assert vec.rows == row.rows, sql


@pytest.fixture(scope="module")
def engines(mini_db):
    """One shared engine pair over the session database — repeated examples
    exercise the plan/selection/join-index caches, not just cold planning."""
    return mini_db, VectorEngine(mini_db)


# ---------------------------------------------------------------------------
# Property sweep: vector == row, byte for byte
# ---------------------------------------------------------------------------

_CONDITIONS = [
    "z > 0.5",
    "z >= 0.55",
    "z < 0.3",
    "class = 'GALAXY'",
    "class != 'STAR'",
    "subclass IS NULL",
    "subclass IS NOT NULL",
    "z BETWEEN 0.2 AND 1.0",
    "class IN ('GALAXY', 'STAR')",
    "class LIKE 'G%'",
    "bestobjid = 3",
]

_PHOTO_CONDITIONS = ["type = 3", "r > 17.0", "u <= 20.0", "type != 6"]

_AGGS = ["COUNT(*)", "SUM(z)", "AVG(z)", "MIN(ra)", "MAX(z)"]


@st.composite
def vector_queries(draw):
    kind = draw(st.sampled_from(["single", "join", "agg"]))
    if kind == "single":
        columns = ["specobjid", "bestobjid", "class", "subclass", "z", "ra"]
        projection = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True)
        )
        sql = (
            "SELECT "
            + ("DISTINCT " if draw(st.booleans()) else "")
            + ", ".join(projection)
            + " FROM specobj"
        )
        conditions = draw(
            st.lists(st.sampled_from(_CONDITIONS), min_size=0, max_size=2)
        )
        if conditions:
            sql += " WHERE " + draw(st.sampled_from([" AND ", " OR "])).join(
                conditions
            )
        if draw(st.booleans()):
            # 'class' ties across rows: byte-identity requires both engines
            # to break ties the same way.
            order = draw(st.sampled_from(["class", projection[0]]))
            sql += f" ORDER BY {order} {draw(st.sampled_from(['ASC', 'DESC']))}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(min_value=1, max_value=4))}"
        return sql
    if kind == "join":
        sql = (
            "SELECT s.class, p.r FROM specobj AS s "
            "JOIN photoobj AS p ON s.bestobjid = p.objid"
        )
        if draw(st.booleans()):
            sql += " JOIN neighbors AS n ON n.objid = p.objid"
        where = []
        if draw(st.booleans()):
            where.append("s." + draw(st.sampled_from(_CONDITIONS[:5])))
        if draw(st.booleans()):
            where.append("p." + draw(st.sampled_from(_PHOTO_CONDITIONS)))
        if where:
            sql += " WHERE " + " AND ".join(where)
        if draw(st.booleans()):
            sql += " ORDER BY s.class, p.r"
        return sql
    aggs = draw(st.lists(st.sampled_from(_AGGS), min_size=1, max_size=2, unique=True))
    sql = f"SELECT class, {', '.join(aggs)} FROM specobj GROUP BY class"
    if draw(st.booleans()):
        sql += " HAVING COUNT(*) >= 1"
    if draw(st.booleans()):
        sql += f" ORDER BY {aggs[0]} DESC"
    return sql


@given(vector_queries())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_vector_matches_row_engine(engines, sql):
    database, engine = engines
    _assert_identical(database, engine, sql)


# ---------------------------------------------------------------------------
# Gold split identity on a real domain
# ---------------------------------------------------------------------------


def test_sdss_gold_split_byte_identical(sdss_domain):
    engine = VectorEngine(sdss_domain.database)
    for pair in sdss_domain.seed.pairs:
        _assert_identical(sdss_domain.database, engine, pair.sql)
    assert _counter(engine, "fallbacks") == 0


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_warm_rerun_is_identical_and_cached(mini_db):
    engine = VectorEngine(mini_db)
    query = parse(
        "SELECT s.class, COUNT(*) FROM specobj AS s "
        "JOIN photoobj AS p ON s.bestobjid = p.objid "
        "WHERE p.type = 3 GROUP BY s.class ORDER BY COUNT(*) DESC"
    )
    first = engine.execute(query)
    second = engine.execute(query)
    assert first.rows == second.rows
    assert list(first.columns) == list(second.columns)
    assert _counter(engine, "plans_built") == 1
    assert _counter(engine, "plan_cache_hits") >= 1


def test_insert_invalidates_columnar_caches(mini_schema):
    database = create_database(
        mini_schema,
        {"photoobj": [(1, 19.0, 16.5, 3), (2, 20.0, 19.5, 6)]},
    )
    engine = VectorEngine(database)
    query = parse("SELECT COUNT(*) FROM photoobj WHERE type = 3")
    assert engine.execute(query).rows == [(1,)]
    database.insert("photoobj", [(3, 21.0, 18.0, 3)])
    # Both the columnar snapshot and the scan's selection cache must refresh.
    assert engine.execute(query).rows == [(2,)]
    assert Executor(database).execute(query).rows == [(2,)]


def test_engine_swap_on_database(mini_schema):
    database = create_database(
        mini_schema, {"photoobj": [(1, 19.0, 16.5, 3)]}
    )
    assert database.engine_name == "vector"
    assert database.execute("SELECT objid FROM photoobj").rows == [(1,)]
    database.set_engine("native")
    assert database.engine_name == "native"
    assert database.execute("SELECT objid FROM photoobj").rows == [(1,)]
    database.set_engine("vector")
    assert database.engine_name == "vector"
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError):
        database.set_engine("turbo")


# ---------------------------------------------------------------------------
# Pickling and copying: the data and the engine name, never the executor
# ---------------------------------------------------------------------------

_PROBE = (
    "SELECT s.class, COUNT(*) FROM specobj AS s JOIN photoobj AS p "
    "ON s.bestobjid = p.objid GROUP BY s.class ORDER BY s.class"
)


@pytest.mark.parametrize("engine_name", ["vector", "native"])
def test_database_pickles_and_copies_with_its_engine(mini_db, engine_name):
    database = copy.deepcopy(mini_db)
    database.set_engine(engine_name)
    expected = database.execute(_PROBE)
    for clone in (pickle.loads(pickle.dumps(database)), copy.deepcopy(database)):
        assert clone.engine_name == engine_name
        result = clone.execute(_PROBE)
        assert list(result.columns) == list(expected.columns)
        assert result.rows == expected.rows
        # The rebuilt executor reads the copy's own tables.
        clone.insert("photoobj", [(6, 20.5, 18.1, 3)])
        assert clone.execute("SELECT COUNT(*) FROM photoobj").rows == [(6,)]
    assert database.execute("SELECT COUNT(*) FROM photoobj").rows == [(5,)]


def test_artifact_cache_stores_a_vector_domain(sdss_domain, tmp_path):
    from repro.runtime import ArtifactCache

    domain = copy.deepcopy(sdss_domain)
    domain.database.set_engine("vector")
    cache = ArtifactCache(tmp_path)
    cache.store("ab12", "domain:sdss", domain)
    hit, loaded = cache.load("ab12")
    assert hit
    assert loaded.database.engine_name == "vector"
    for pair in domain.dev.pairs[:20]:
        assert (
            loaded.database.execute(pair.sql).rows
            == domain.database.execute(pair.sql).rows
        ), pair.sql


# ---------------------------------------------------------------------------
# Fallback contract
# ---------------------------------------------------------------------------


def test_unsupported_plan_falls_back_to_row_engine(mini_db, monkeypatch):
    engine = VectorEngine(mini_db)
    sql = "SELECT class FROM specobj ORDER BY class"
    expected = Executor(mini_db).execute(parse(sql))

    def refuse(query, sql=None):
        raise VectorUnsupported("injected for the fallback test")

    monkeypatch.setattr(engine._planner, "plan_query", refuse)
    result = engine.execute(parse(sql))
    assert result.rows == expected.rows
    assert _counter(engine, "fallbacks") == 1


def test_forward_on_reference_reports_fallback(mini_db):
    engine = VectorEngine(mini_db)
    sql = (
        "SELECT COUNT(*) FROM specobj AS s "
        "JOIN photoobj AS p ON p.objid = n.objid "
        "JOIN neighbors AS n ON n.neighborobjid = p.objid"
    )
    rendered = engine.explain(parse(sql), sql)
    assert rendered.startswith("fallback to row engine:")
    assert "later table" in rendered


# ---------------------------------------------------------------------------
# Observability: corrected counters on spans
# ---------------------------------------------------------------------------


def _query_span_attrs(database, engine_name: str, sql: str) -> dict:
    previous_engine = database.engine_name
    database.set_engine(engine_name)
    tracer = Tracer()
    previous = obs.set_tracer(tracer)
    try:
        database.execute(sql)
    finally:
        obs.set_tracer(previous)
        database.set_engine(previous_engine)
    names = {"native": "engine.query", "vector": "engine.vector.query"}
    spans = [s for s in tracer.finished() if s.name == names[engine_name]]
    assert spans, f"no {names[engine_name]} span recorded"
    return spans[-1].attrs


def test_rows_scanned_excludes_derived_table_results(mini_schema):
    """The satellite fix: subquery *result* rows are not scan work.  Both
    engines bill only the 5 base-table rows for a derived-table query."""
    database = create_database(
        mini_schema,
        {
            "specobj": [
                (10, 1, "GALAXY", "STARBURST", 0.70, 120.0),
                (11, 2, "GALAXY", "AGN", 0.30, 121.0),
                (12, 3, "STAR", "OB", 0.00, 122.0),
                (13, 4, "QSO", "BROADLINE", 1.80, 123.0),
                (14, 5, "GALAXY", None, 0.55, 124.5),
            ]
        },
    )
    sql = "SELECT class FROM (SELECT class FROM specobj) AS t"
    for engine_name in ("native", "vector"):
        attrs = _query_span_attrs(database, engine_name, sql)
        assert attrs["rows_scanned"] == 5, engine_name


def test_vector_span_carries_plan_hash(mini_schema):
    database = create_database(
        mini_schema, {"photoobj": [(1, 19.0, 16.5, 3)]}
    )
    attrs = _query_span_attrs(
        database, "vector", "SELECT objid FROM photoobj WHERE type = 3"
    )
    assert attrs["fallback"] is False
    assert len(attrs["plan_hash"]) == 12
    assert attrs["batches"] >= 1
