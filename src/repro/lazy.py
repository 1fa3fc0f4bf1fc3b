"""Package re-exports that import on first use (PEP 562).

A package ``__init__`` that imports every name it re-exports makes any
``import repro.pkg.module`` load all of ``module``'s siblings too: importing
``repro.resilience.clock`` used to load the simulated LLMs through
``FlakyModel``.  :func:`lazy_exports` builds the package's module
``__getattr__``, which imports a name's defining module the first time the
name is read and then binds it in the package, so later reads are plain
attribute lookups.

One pitfall: loading a submodule binds it as an attribute of its package.
A re-exported name that is also a submodule's name (``repro.metrics``'
``exact_match``) is shadowed by the submodule once that loads, so such a
package imports that name eagerly instead.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package``: ``exports`` maps each defining
    module to the names the package re-exports from it."""
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__
