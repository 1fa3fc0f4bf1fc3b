"""The domain-adapter registry: manifest in, lazily-loaded adapter out.

The registry is the single resolution point for domain names.  Everything
that used to import ``repro.datasets.cordis`` (and friends) by name — the
CLI, the experiment task graph, serving, chaos-bench — now asks
``get_adapter(name)`` and receives a :class:`DomainAdapter` handle that
imports the underlying module only when the domain is actually built.

Resolution is deterministic: :func:`list_adapters` returns sorted names, and
registration order never affects behaviour.  Registering the same manifest
twice is a no-op (so a CLI ``--adapter`` file can be loaded repeatedly);
registering a *different* manifest under an existing name raises
:class:`~repro.errors.AdapterError` unless ``replace=True``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from repro.adapters.manifest import AdapterManifest
from repro.checks.lockorder import new_lock
from repro.errors import AdapterError
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry

#: Load/registration counters for the whole process ("adapters.registered",
#: "adapters.loaded", "adapters.load_errors").  Snapshot via
#: ``METRICS.snapshot()``; diff-exec embeds it in its report.
METRICS = MetricsRegistry()

_lock = new_lock("adapters.registry")
_manifests: dict[str, AdapterManifest] = {}
_adapters: dict[str, "DomainAdapter"] = {}


class DomainAdapter:
    """A lazy handle over one registered domain adapter module.

    ``build(scale=..., seed=...)`` imports the adapter module on first use
    (recorded as an ``adapter.load`` span and an ``adapters.loaded``
    counter) and delegates to its build entry point, which must return a
    :class:`~repro.datasets.records.BenchmarkDomain`.
    """

    def __init__(self, manifest: AdapterManifest) -> None:
        self.manifest = manifest
        self._builder = None

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def description(self) -> str:
        return self.manifest.description

    def spec(self) -> dict:
        """JSON-safe import spec for task params (worker-process transport)."""
        return self.manifest.spec()

    def loaded(self) -> bool:
        return self._builder is not None

    def load(self):
        """Resolve the build entry point, importing the module if needed."""
        if self._builder is None:
            tracer = get_tracer()
            with tracer.span(
                "adapter.load", adapter=self.name, module=self.manifest.module
            ):
                self._builder = builder_from_spec(self.manifest.spec())
            METRICS.counter("adapters.loaded").inc()
        return self._builder

    def build(self, scale: float = 1.0, seed: int | None = None):
        """Build the domain at ``scale``; ``seed`` overrides the module's
        default RNG seed when given."""
        builder = self.load()
        domain = builder(scale=scale) if seed is None else builder(scale=scale, seed=seed)
        for attr in ("database", "seed", "dev", "enhanced"):
            if not hasattr(domain, attr):
                raise AdapterError(
                    f"adapter {self.name!r} returned {type(domain).__name__}, "
                    f"not a BenchmarkDomain (missing {attr!r})"
                )
        return domain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "loaded" if self.loaded() else "lazy"
        return f"DomainAdapter({self.name!r}, {self.manifest.module}, {state})"


def register(manifest: AdapterManifest, replace: bool = False) -> DomainAdapter:
    """Register ``manifest``; returns its (lazy) :class:`DomainAdapter`.

    Identical re-registration is a no-op; a conflicting manifest under an
    existing name raises :class:`AdapterError` unless ``replace=True``.
    """
    with _lock:
        existing = _manifests.get(manifest.name)
        if existing is not None and not replace:
            if existing == manifest:
                return _adapters[manifest.name]
            raise AdapterError(
                f"adapter {manifest.name!r} is already registered "
                f"(module {existing.module!r}); pass replace=True to override"
            )
        adapter = DomainAdapter(manifest)
        _manifests[manifest.name] = manifest
        _adapters[manifest.name] = adapter
    METRICS.counter("adapters.registered").inc()
    return adapter


def unregister(name: str) -> None:
    """Remove one adapter; unknown names are ignored (idempotent cleanup)."""
    with _lock:
        _manifests.pop(name, None)
        _adapters.pop(name, None)


def get_adapter(name: str) -> DomainAdapter:
    """The adapter registered under ``name`` (case-insensitive)."""
    key = name.lower()
    with _lock:
        adapter = _adapters.get(key)
    if adapter is None:
        raise AdapterError(
            f"unknown domain adapter {name!r}; registered adapters: "
            + ", ".join(list_adapters())
        )
    return adapter


def list_adapters() -> tuple[str, ...]:
    """Registered adapter names, sorted — never registration-ordered."""
    with _lock:
        names = list(_manifests)
    return tuple(sorted(names))


def get_manifest(name: str) -> AdapterManifest:
    return get_adapter(name).manifest


class temporary:
    """``with temporary(manifest): ...`` — register for the block only.

    Test hygiene: a toy adapter registered inside one test never leaks into
    the rest of the session.
    """

    def __init__(self, manifest: AdapterManifest, replace: bool = False) -> None:
        self._manifest = manifest
        self._replace = replace
        self._displaced: AdapterManifest | None = None

    def __enter__(self) -> DomainAdapter:
        with _lock:
            self._displaced = _manifests.get(self._manifest.name)
        return register(self._manifest, replace=self._replace)

    def __exit__(self, *exc_info) -> bool:
        unregister(self._manifest.name)
        if self._displaced is not None:
            register(self._displaced)
        return False


# -- import plumbing -----------------------------------------------------------


def builder_from_spec(spec: dict):
    """Resolve an import spec (``{"module", "attr"[, "source"]}``) to the
    build callable.  This is what worker-process task bodies call: the spec
    travels in task params, so no registry state crosses the process
    boundary."""
    module_name = spec["module"]
    attr = spec.get("attr", "build")
    source = spec.get("source")
    try:
        if source is not None and module_name not in sys.modules:
            module = _import_source(module_name, source)
        else:
            module = importlib.import_module(module_name)
    except ImportError as exc:
        METRICS.counter("adapters.load_errors").inc()
        raise AdapterError(
            f"cannot import adapter module {module_name!r}: {exc}"
        ) from exc
    builder = getattr(module, attr, None)
    if not callable(builder):
        METRICS.counter("adapters.load_errors").inc()
        raise AdapterError(
            f"adapter module {module_name!r} has no callable {attr!r}"
        )
    return builder


def _import_source(module_name: str, source: str):
    """Import a standalone ``.py`` file under ``module_name``."""
    path = Path(source)
    if not path.exists():
        raise AdapterError(f"adapter source {source!r} does not exist")
    loader_spec = importlib.util.spec_from_file_location(module_name, path)
    if loader_spec is None or loader_spec.loader is None:
        raise AdapterError(f"cannot load adapter source {source!r}")
    module = importlib.util.module_from_spec(loader_spec)
    sys.modules[module_name] = module
    try:
        loader_spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(module_name, None)
        raise
    return module


def load_adapter_source(path: str):
    """Import an adapter file (or dotted module) so it can self-register.

    The file is expected to call :func:`register` at import time — the CLI's
    ``--adapter`` flag routes through here.  Returns the imported module.
    """
    if path.endswith(".py") or "/" in path or path.startswith("."):
        stem = Path(path).stem
        module_name = f"repro_adapter_{stem}"
        if module_name in sys.modules:
            return sys.modules[module_name]
        return _import_source(module_name, path)
    return importlib.import_module(path)


# -- builtins ------------------------------------------------------------------

#: The three ScienceBenchmark domains of the paper, as ordinary adapters.
BUILTIN_MANIFESTS = (
    AdapterManifest(
        name="cordis",
        module="repro.datasets.cordis",
        description="EU research-funding database (CORDIS)",
    ),
    AdapterManifest(
        name="sdss",
        module="repro.datasets.sdss",
        description="Sloan Digital Sky Survey astrophysics database",
    ),
    AdapterManifest(
        name="oncomx",
        module="repro.datasets.oncomx",
        description="OncoMX cancer biomarker database",
    ),
)

for _manifest in BUILTIN_MANIFESTS:
    register(_manifest)
