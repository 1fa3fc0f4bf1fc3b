"""Tests for the domain-adapter registry (repro.adapters)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import adapters
from repro.adapters import AdapterManifest
from repro.errors import AdapterError

REPO_ROOT = Path(__file__).resolve().parent.parent
CLIMATE_ADAPTER = REPO_ROOT / "examples" / "climate_adapter.py"


def _forget_climate():
    """Drop the toy adapter from the registry AND the import cache, so each
    test exercises a fresh import of the single-file adapter."""
    adapters.unregister("climate")
    sys.modules.pop("repro_adapter_climate_adapter", None)


# -- manifests ------------------------------------------------------------------


def test_manifest_validates_name():
    with pytest.raises(AdapterError):
        AdapterManifest(name="", module="x")
    with pytest.raises(AdapterError):
        AdapterManifest(name="Bad Name", module="x")
    with pytest.raises(AdapterError):
        AdapterManifest(name="ok", module="")
    AdapterManifest(name="snake_case-too", module="x")  # no raise


def test_manifest_spec_roundtrip():
    manifest = AdapterManifest(
        name="toy", module="toy.mod", attr="make", source="/tmp/toy.py"
    )
    spec = manifest.spec()
    assert spec == {"module": "toy.mod", "attr": "make", "source": "/tmp/toy.py"}
    assert AdapterManifest.from_spec("toy", spec) == manifest


# -- registration ---------------------------------------------------------------


def test_builtins_are_registered_and_sorted():
    names = adapters.list_adapters()
    assert set(names) >= {"cordis", "sdss", "oncomx"}
    assert list(names) == sorted(names)


def test_register_and_unregister():
    manifest = AdapterManifest(name="toy_reg", module="nonexistent.module")
    adapter = adapters.register(manifest)
    try:
        assert adapters.get_adapter("toy_reg") is adapter
        assert adapters.get_adapter("TOY_REG") is adapter  # case-insensitive
        assert "toy_reg" in adapters.list_adapters()
        assert not adapter.loaded()  # registration never imports
    finally:
        adapters.unregister("toy_reg")
    assert "toy_reg" not in adapters.list_adapters()
    adapters.unregister("toy_reg")  # idempotent


def test_identical_reregistration_is_noop():
    manifest = AdapterManifest(name="toy_dup", module="nonexistent.module")
    first = adapters.register(manifest)
    try:
        again = adapters.register(AdapterManifest(name="toy_dup", module="nonexistent.module"))
        assert again is first
    finally:
        adapters.unregister("toy_dup")


def test_conflicting_registration_rejected():
    with adapters.temporary(AdapterManifest(name="toy_conf", module="mod.a")):
        with pytest.raises(AdapterError, match="already registered"):
            adapters.register(AdapterManifest(name="toy_conf", module="mod.b"))
        # replace=True is the explicit override.
        replaced = adapters.register(
            AdapterManifest(name="toy_conf", module="mod.b"), replace=True
        )
        assert replaced.manifest.module == "mod.b"


def test_unknown_adapter_error_lists_registered():
    with pytest.raises(AdapterError, match="cordis"):
        adapters.get_adapter("definitely-not-a-domain")


def test_temporary_restores_displaced_manifest():
    original = adapters.get_manifest("cordis")
    shadow = AdapterManifest(name="cordis", module="examples.shadow")
    with adapters.temporary(shadow, replace=True):
        assert adapters.get_manifest("cordis") is shadow
    assert adapters.get_manifest("cordis") == original


def test_deterministic_ordering_is_registration_order_independent():
    a = AdapterManifest(name="zz_last", module="m")
    b = AdapterManifest(name="aa_first", module="m")
    with adapters.temporary(a), adapters.temporary(b):
        names = adapters.list_adapters()
        assert names.index("aa_first") < names.index("zz_last")
        assert list(names) == sorted(names)


# -- lazy loading and building --------------------------------------------------


def test_adapter_build_routes_to_dataset_module():
    domain = adapters.get_adapter("sdss").build(scale=0.1)
    assert domain.name == "sdss"
    assert domain.database.row_count() > 0


def test_adapter_build_with_seed_override():
    adapter = adapters.get_adapter("oncomx")
    one = adapter.build(scale=0.1, seed=3)
    two = adapter.build(scale=0.1, seed=3)
    assert [p.sql for p in one.seed.pairs] == [p.sql for p in two.seed.pairs]


def test_registry_is_lazy_until_build():
    # A subprocess proves importing the registry does not import the three
    # dataset modules; only build() pays for the one it needs.
    code = (
        "import sys\n"
        "from repro import adapters\n"
        "assert 'repro.datasets.cordis' not in sys.modules\n"
        "assert 'repro.datasets.oncomx' not in sys.modules\n"
        "adapters.get_adapter('oncomx').build(scale=0.1)\n"
        "assert 'repro.datasets.oncomx' in sys.modules\n"
        "assert 'repro.datasets.cordis' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_build_rejects_non_domain_return():
    # builtins.dict happily accepts scale=/seed= kwargs but returns a dict,
    # not a BenchmarkDomain — the duck-type check must reject it.
    with adapters.temporary(
        AdapterManifest(name="toy_bad", module="builtins", attr="dict")
    ):
        with pytest.raises(AdapterError, match="BenchmarkDomain"):
            adapters.get_adapter("toy_bad").build(scale=1.0, seed=2)


def test_builder_from_spec_errors():
    with pytest.raises(AdapterError, match="cannot import"):
        adapters.builder_from_spec({"module": "no.such.module"})
    with pytest.raises(AdapterError, match="no callable"):
        adapters.builder_from_spec({"module": "math", "attr": "pi"})


def test_builder_from_spec_with_source_file():
    spec = {
        "module": "repro_adapter_climate_adapter",
        "attr": "build",
        "source": str(CLIMATE_ADAPTER),
    }
    try:
        builder = adapters.builder_from_spec(spec)
        domain = builder(scale=0.5, seed=9)
        assert domain.name == "climate"
    finally:
        _forget_climate()  # the file self-registers on import


# -- single-file adapters (the walkthrough) -------------------------------------


def test_load_adapter_source_self_registers():
    module = adapters.load_adapter_source(str(CLIMATE_ADAPTER))
    try:
        assert "climate" in adapters.list_adapters()
        adapter = adapters.get_adapter("climate")
        assert adapter.manifest.source == str(module.__file__)
        domain = adapter.build(scale=0.3, seed=4)
        assert domain.name == "climate"
        assert not domain.validate_gold_sql()
        # Loading again is a no-op (identical manifest).
        adapters.load_adapter_source(str(CLIMATE_ADAPTER))
    finally:
        _forget_climate()


def test_toy_adapter_through_tables_cli(capsys):
    # The acceptance walkthrough: a brand-new domain from one file runs the
    # Table-1 path without editing any existing module.
    from repro import cli

    code = cli.main(
        [
            "tables", "1",
            "--adapter", str(CLIMATE_ADAPTER),
            "--domain", "climate",
            "--no-cache",
        ]
    )
    try:
        out = capsys.readouterr().out
        assert code == 0
        assert "CLIMATE" in out
    finally:
        _forget_climate()


# -- task graph -----------------------------------------------------------------


def test_task_graph_carries_adapter_specs():
    from repro.experiments.config import quick
    from repro.experiments.tasks import build_suite_graph, domain_task

    graph = build_suite_graph(quick())
    task = graph.task(domain_task("cordis"))
    assert task.params["adapter"] == {
        "module": "repro.datasets.cordis",
        "attr": "build",
    }
