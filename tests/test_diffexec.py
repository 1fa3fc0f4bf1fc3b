"""Tests for differential execution (repro.engine.backends + diffexec)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.backends import (
    ExecutionBackend,
    available_backends,
    get_backend,
)
from repro.engine.backends.native import NativeBackend
from repro.engine.backends.sqlite import SqliteBackend
from repro.engine.diffexec import (
    ALL_SPLITS,
    GOLD_SPLITS,
    run_diff_exec,
    run_three_way,
    write_reports,
)
from repro.engine.executor import Result
from repro.errors import ExecutionError

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def climate_domain():
    import sys

    from repro import adapters

    # Force a fresh import so the build callable is this file's, regardless
    # of what other test modules loaded earlier.
    sys.modules.pop("repro_adapter_climate_adapter", None)
    module = adapters.load_adapter_source(
        str(REPO_ROOT / "examples" / "climate_adapter.py")
    )
    adapters.unregister("climate")  # the import self-registers; keep it clean
    yield module.build(scale=0.5, seed=7)
    sys.modules.pop("repro_adapter_climate_adapter", None)


# -- backend plumbing -----------------------------------------------------------


def test_backend_registry():
    assert available_backends() == ("native", "sqlite", "vector")
    assert isinstance(get_backend("sqlite"), SqliteBackend)
    assert isinstance(get_backend("native"), NativeBackend)
    with pytest.raises(ExecutionError, match="unknown execution backend"):
        get_backend("postgres")


def test_native_backend_requires_load():
    backend = NativeBackend()
    with pytest.raises(ExecutionError, match="no database loaded"):
        backend.execute("SELECT 1")


def test_sqlite_backend_executes_and_reports_errors(climate_domain):
    with get_backend("sqlite") as backend:
        backend.load(climate_domain.database)
        result = backend.execute("SELECT COUNT(*) FROM station")
        expected = len(climate_domain.database.table("station").rows)
        assert result.rows[0][0] == expected
        with pytest.raises(ExecutionError, match="sqlite"):
            backend.execute("SELECT nope FROM missing_table")
        assert backend.try_execute("SELECT nope FROM missing_table") is None


# -- agreement on gold queries --------------------------------------------------


def test_gold_queries_agree_on_toy_domain(climate_domain):
    report = run_diff_exec(climate_domain, backend="sqlite")
    assert report.agreed
    assert report.n_queries == len(climate_domain.seed) + len(climate_domain.dev)
    assert report.n_divergences == 0
    assert set(report.per_split) == set(GOLD_SPLITS)
    assert "diffexec.queries" in report.metrics


def test_gold_queries_agree_on_builtin_domain():
    from repro import adapters

    domain = adapters.get_adapter("oncomx").build(scale=0.1)
    report = run_diff_exec(domain, backend="sqlite")
    assert report.agreed, report.render()


def test_missing_synth_split_is_noted_not_fatal(climate_domain):
    report = run_diff_exec(climate_domain, backend="sqlite", splits=ALL_SPLITS)
    assert report.agreed
    assert report.per_split["synth"].get("skipped")


# -- intentional divergence -----------------------------------------------------


class _RowDroppingBackend(ExecutionBackend):
    """A sabotaged sqlite backend: silently drops the last row of every
    non-empty result.  Exists to prove diff-exec actually catches
    divergences instead of vacuously agreeing."""

    name = "dropping-sqlite"

    def __init__(self) -> None:
        self._inner = SqliteBackend()

    def load(self, database) -> None:
        self._inner.load(database)

    def execute(self, sql: str) -> Result:
        result = self._inner.execute(sql)
        if result.rows:
            return Result(columns=result.columns, rows=result.rows[:-1])
        return result

    def close(self) -> None:
        self._inner.close()


def test_sabotaged_backend_is_caught(climate_domain):
    report = run_diff_exec(climate_domain, backend=_RowDroppingBackend())
    assert not report.agreed
    assert report.n_divergences > 0
    kinds = {d.kind for d in report.divergences}
    assert kinds == {"result-mismatch"}
    one = report.divergences[0]
    assert one.domain == "climate"
    assert one.engine_rows is not None and one.backend_rows is not None
    assert one.engine_rows == one.backend_rows + 1
    rendered = report.render()
    assert "DIVERGE" in rendered


class _ErroringBackend(ExecutionBackend):
    """Rejects every query — each one must surface as a backend-error."""

    name = "erroring"

    def load(self, database) -> None:
        pass

    def execute(self, sql: str) -> Result:
        raise ExecutionError("synthetic failure")


def test_backend_errors_surface_as_divergences(climate_domain):
    report = run_diff_exec(climate_domain, backend=_ErroringBackend())
    assert not report.agreed
    assert {d.kind for d in report.divergences} == {"backend-error"}
    assert all("synthetic failure" in d.detail for d in report.divergences)


def test_three_way_native_arm_is_the_row_engine(climate_domain, monkeypatch):
    """A sabotaged vector engine surfaces as vector divergences only.

    The database itself runs on the vector engine, so a native arm that went
    through ``Database.execute`` would drop the same rows as the vector arm
    (no vector divergence) and disagree with sqlite."""
    from repro.engine.vector import VectorEngine

    assert climate_domain.database.engine_name == "vector"
    original = VectorEngine.execute

    def dropping(self, query):
        result = original(self, query)
        if result.rows:
            return Result(columns=result.columns, rows=result.rows[:-1])
        return result

    monkeypatch.setattr(VectorEngine, "execute", dropping)
    vector, sqlite = run_three_way(climate_domain)
    assert vector.backend == "vector"
    assert not vector.agreed
    assert {d.kind for d in vector.divergences} == {"result-mismatch"}
    assert sqlite.agreed, sqlite.render()


# -- report serialization -------------------------------------------------------


def test_write_reports_json(climate_domain, tmp_path):
    good = run_diff_exec(climate_domain, backend="sqlite")
    bad = run_diff_exec(climate_domain, backend=_RowDroppingBackend())
    path = write_reports([good, bad], tmp_path / "reports" / "diffexec.json")
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["agreed"] is False
    assert len(payload["reports"]) == 2
    entry = payload["reports"][1]
    assert entry["backend"] == "dropping-sqlite"
    assert entry["n_divergences"] == len(entry["divergences"]) > 0
    sample = entry["divergences"][0]
    assert {"domain", "split", "question", "sql", "kind", "detail"} <= set(sample)


# -- the CLI subcommand ---------------------------------------------------------


def test_diff_exec_cli_gold(tmp_path, capsys):
    import sys

    from repro import adapters, cli

    sys.modules.pop("repro_adapter_climate_adapter", None)
    out_file = tmp_path / "diffexec.json"
    code = cli.main(
        [
            "diff-exec",
            "--adapter", str(REPO_ROOT / "examples" / "climate_adapter.py"),
            "--domain", "climate",
            "--out", str(out_file),
        ]
    )
    try:
        assert code == 0
        out = capsys.readouterr().out
        assert "diff-exec[climate]" in out and "0 divergences" in out
        payload = json.loads(out_file.read_text())
        assert payload["agreed"] is True
    finally:
        adapters.unregister("climate")
        import sys

        sys.modules.pop("repro_adapter_climate_adapter", None)
