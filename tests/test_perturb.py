"""The perturbation engine and robustness-bench.

Covers the tentpole guarantees: every family is deterministic in
(seed, family, severity) — byte-identical perturbed schemas and questions
across independent applies (hypothesis) and across ``--workers 1`` vs
``--workers 4`` bench runs; the rename family preserves query semantics
(rewritten gold SQL returns the original rows on the renamed database);
the distractor family never moves a gold result; and the robustness gates
and CLI error paths behave.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import adapters
from repro.cli import main
from repro.errors import PerturbationError
from repro.obs.export import BENCH_SCHEMA_VERSION, write_report
from repro.perturb import (
    FAMILIES,
    FAMILY_NAMES,
    SEVERITIES,
    Perturbation,
    fingerprint_domain,
    fingerprint_rows,
    get_family,
)
from repro.perturb.bench import (
    evaluate_robustness_gates,
    render_report,
    run_robustness_bench,
)
from repro.perturb.synthdomain import generate_domain, manifest_for


@pytest.fixture(scope="module")
def base_domain():
    """A small real domain the families perturb (built bare, no synthesis)."""
    return adapters.get_adapter("cordis").build(scale=0.15)


# -- the family registry -------------------------------------------------------


def test_registry_ships_five_families_sorted():
    assert FAMILY_NAMES == (
        "distractor", "drift", "paraphrase", "rename", "synth",
    )
    for family in FAMILIES.values():
        assert isinstance(family, Perturbation)


def test_unknown_family_lists_the_registry():
    with pytest.raises(PerturbationError, match="distractor, drift, paraphrase"):
        get_family("typo")


def test_bench_rejects_unknown_family_before_running():
    with pytest.raises(PerturbationError, match="unknown perturbation family"):
        run_robustness_bench(domains=("cordis",), families=("nope",))


# -- determinism (hypothesis) --------------------------------------------------


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(FAMILY_NAMES),
    severity=st.sampled_from(SEVERITIES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_same_seed_family_severity_is_byte_identical(
    base_domain, family, severity, seed
):
    """Two independent applies of (seed, family, severity) produce
    byte-identical perturbed domains — schemas, rows, questions and SQL."""
    first = FAMILIES[family].apply(base_domain, severity, random.Random(seed))
    second = FAMILIES[family].apply(base_domain, severity, random.Random(seed))
    assert fingerprint_domain(first.domain) == fingerprint_domain(second.domain)
    assert first.metadata == second.metadata
    assert [p.question for p in first.domain.dev.pairs] == [
        p.question for p in second.domain.dev.pairs
    ]
    assert [p.sql for p in first.domain.seed.pairs] == [
        p.sql for p in second.domain.seed.pairs
    ]


@settings(max_examples=8, deadline=None)
@given(
    family=st.sampled_from(FAMILY_NAMES),
    severity=st.sampled_from(SEVERITIES),
    seed_a=st.integers(min_value=0, max_value=2**20),
    seed_b=st.integers(min_value=0, max_value=2**20),
)
def test_gold_sql_stays_executable_under_any_seed(
    base_domain, family, severity, seed_a, seed_b
):
    """Every family keeps every gold query runnable on its own rewritten
    schema, for arbitrary seeds (the ``validate_perturbed`` contract)."""
    for seed in {seed_a, seed_b}:
        perturbed = FAMILIES[family].apply(
            base_domain, severity, random.Random(seed)
        )
        assert perturbed.domain.validate_gold_sql() == []


def test_workers_do_not_change_the_report(tmp_path):
    """``--workers 1`` and ``--workers 4`` emit byte-identical reports."""
    kwargs = dict(
        domains=("cordis",),
        families=("rename", "drift"),
        severities=(1,),
        scale=0.15,
        dev_limit=6,
    )
    solo, _ = run_robustness_bench(
        workers=1, cache_dir=str(tmp_path / "w1"), **kwargs
    )
    fanned, _ = run_robustness_bench(
        workers=4, cache_dir=str(tmp_path / "w4"), **kwargs
    )
    dump = lambda report: json.dumps(report, indent=2, sort_keys=True)  # noqa: E731
    assert dump(solo) == dump(fanned)


def test_warm_cache_rerun_recomputes_nothing_and_matches(tmp_path):
    kwargs = dict(
        domains=("cordis",), families=("paraphrase",), severities=(2,),
        scale=0.15, dev_limit=6, cache_dir=str(tmp_path),
    )
    cold, cold_rr = run_robustness_bench(**kwargs)
    warm, warm_rr = run_robustness_bench(**kwargs)
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
    assert cold_rr.computed > 0
    assert warm_rr.computed == 0


# -- family semantics ----------------------------------------------------------


def test_rename_preserves_query_semantics(base_domain):
    """Rewritten gold SQL on the renamed database returns exactly the rows
    the original SQL returns on the base database — for every severity."""
    for severity in SEVERITIES:
        perturbed = FAMILIES["rename"].apply(
            base_domain, severity, random.Random(7)
        )
        originals = list(base_domain.seed.pairs) + list(base_domain.dev.pairs)
        rewritten = list(perturbed.domain.seed.pairs) + list(
            perturbed.domain.dev.pairs
        )
        assert len(originals) == len(rewritten)
        changed = 0
        for old, new in zip(originals, rewritten):
            assert old.question == new.question  # questions are never touched
            changed += old.sql != new.sql
            assert fingerprint_rows(
                base_domain.database.execute(old.sql)
            ) == fingerprint_rows(perturbed.domain.database.execute(new.sql))
        assert changed > 0  # the rename actually reached the gold SQL


def test_rename_severity_3_is_fully_cryptic(base_domain):
    perturbed = FAMILIES["rename"].apply(base_domain, 3, random.Random(3))
    schema = perturbed.domain.database.schema
    base_tables = {t.name.lower() for t in base_domain.database.schema.tables}
    assert not base_tables & {t.name.lower() for t in schema.tables}
    assert perturbed.metadata["aliases_stripped"] is True


def test_drift_changes_cells_but_not_gold_sql(base_domain):
    perturbed = FAMILIES["drift"].apply(base_domain, 2, random.Random(11))
    assert perturbed.metadata["drifted_cells"] > 0
    assert [p.sql for p in perturbed.domain.dev.pairs] == [
        p.sql for p in base_domain.dev.pairs
    ]
    # Schema is untouched; only the data moved.
    assert {t.name for t in perturbed.domain.database.schema.tables} == {
        t.name for t in base_domain.database.schema.tables
    }


def test_paraphrase_rewrites_questions_only(base_domain):
    perturbed = FAMILIES["paraphrase"].apply(base_domain, 2, random.Random(5))
    assert perturbed.metadata["questions_changed"] > 0
    assert [p.sql for p in perturbed.domain.dev.pairs] == [
        p.sql for p in base_domain.dev.pairs
    ]
    assert perturbed.domain.database is base_domain.database


def test_distractor_widening_keeps_every_gold_result(base_domain):
    perturbed = FAMILIES["distractor"].apply(base_domain, 2, random.Random(17))
    invariance = perturbed.invariance
    assert invariance is not None
    assert invariance["checked"] == len(base_domain.seed.pairs) + len(
        base_domain.dev.pairs
    )
    assert invariance["identical"] is True
    assert invariance["mismatched"] == []
    assert perturbed.metadata["added_columns"] > 0
    assert len(perturbed.metadata["added_tables"]) == 2


def test_synth_family_registers_nothing_permanently(base_domain):
    before = adapters.list_adapters()
    perturbed = FAMILIES["synth"].apply(base_domain, 1, random.Random(23))
    assert adapters.list_adapters() == before
    assert perturbed.domain.name.startswith("synth_s")
    assert perturbed.metadata["adapter"]["module"] == "repro.perturb.synthdomain"


def test_synth_manifest_spec_rebuilds_the_same_domain():
    """The adapter spec alone (module + attr) rebuilds the identical
    mini-domain — the worker-process transport contract."""
    manifest = manifest_for(seed=424_242, severity=2)
    builder = adapters.builder_from_spec(manifest.spec())
    assert fingerprint_domain(builder(scale=1.0)) == fingerprint_domain(
        generate_domain(424_242, 2, 1.0)
    )


# -- the bench, its gates and the CLI ------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    report, _ = run_robustness_bench(
        domains=("cordis",),
        families=("paraphrase", "distractor"),
        severities=(1,),
        scale=0.15,
        dev_limit=6,
    )
    return report


def test_report_shape_and_degradation_deltas(small_report):
    assert small_report["schema_version"] == BENCH_SCHEMA_VERSION
    assert small_report["benchmark"] == "robustness"
    assert small_report["matrix"]["n_cells"] == 3  # baseline + 2 families
    assert set(small_report["axes"]) == {
        "by_family", "by_severity", "by_domain", "by_system", "by_hardness",
    }
    baseline = small_report["baselines"]["valuenet:cordis"]
    for cell in small_report["cells"]:
        if cell["family"] == "baseline":
            assert cell["degradation"] is None
        else:
            assert cell["degradation"] == pytest.approx(
                baseline - cell["accuracy"], abs=1e-6
            )
    assert small_report["invariance"]["identical"] is True


def test_gate_max_degradation(small_report):
    assert evaluate_robustness_gates(small_report, max_degradation=1.0) == []
    worst = max(
        stats["mean_degradation"]
        for stats in small_report["axes"]["by_family"].values()
    )
    failures = evaluate_robustness_gates(
        small_report, max_degradation=worst - 0.01
    )
    assert any("exceeds the budget" in f for f in failures)


def test_gate_invariant(small_report):
    assert evaluate_robustness_gates(small_report, assert_invariant=True) == []
    broken = dict(small_report)
    broken["invariance"] = {
        "checked": 4, "identical": False, "mismatched": ["SELECT 1"],
    }
    failures = evaluate_robustness_gates(broken, assert_invariant=True)
    assert any("invariance violated" in f for f in failures)
    without = dict(small_report)
    without["invariance"] = None
    failures = evaluate_robustness_gates(without, assert_invariant=True)
    assert any("needs an invariant family" in f for f in failures)


def test_render_report_mentions_every_family(small_report):
    rendered = render_report(small_report)
    assert "paraphrase" in rendered and "distractor" in rendered
    assert "invariance" in rendered


def test_write_report_is_stable_json(small_report, tmp_path):
    path = write_report(small_report, tmp_path / "r.json")
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["benchmark"] == "robustness"


def test_cli_unknown_domain_lists_adapters(capsys):
    code = main(["robustness-bench", "--domain", "nope"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown domain" in err
    for name in adapters.list_adapters():
        assert name in err


def test_cli_smoke_writes_report_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_robustness.json"
    code = main([
        "robustness-bench", "--domain", "cordis",
        "--family", "paraphrase", "--severity", "1",
        "--scale", "0.15", "--dev-limit", "6",
        "--no-cache", "--out", str(out),
        "--assert-max-degradation", "1.0",
    ])
    assert code == 0
    assert json.loads(out.read_text())["schema_version"] == BENCH_SCHEMA_VERSION
    assert "robustness-bench:" in capsys.readouterr().out


def test_bench_composes_with_a_fault_schedule(tmp_path):
    """One run under a fault schedule recovers and reports the injections."""
    faulted, _ = run_robustness_bench(
        domains=("cordis",), families=("drift",), severities=(1,),
        scale=0.15, dev_limit=6, fault_schedule="transient-small",
    )
    clean, _ = run_robustness_bench(
        domains=("cordis",), families=("drift",), severities=(1,),
        scale=0.15, dev_limit=6,
    )
    faults = faulted.pop("faults")
    assert sum(faults["injected"].values()) > 0
    assert sum(faults["recovered"].values()) == sum(faults["injected"].values())
    # Recovery contract: the faulted run's results are byte-identical to the
    # fault-free run's.
    assert json.dumps(faulted, sort_keys=True) == json.dumps(
        clean, sort_keys=True
    )
