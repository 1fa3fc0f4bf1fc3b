"""Package re-exports that resolve on first use (``repro.lazy``).

Every ``__all__`` name of a lazy package must be the object its defining
module binds, however the name is first reached: resolved before any
submodule loads, or read after every submodule has loaded (a submodule
binds itself as a package attribute when it loads, which could shadow a
lazy name of the same spelling).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAZY_MODULES = (
    "repro",
    "repro.checks",
    "repro.experiments.runner",
    "repro.metrics",
    "repro.resilience",
    "repro.spider",
)

#: Checks every ``__all__`` name of the modules in argv[2:]; argv[1] says
#: whether to resolve the names before importing every submodule ("names")
#: or after ("modules").  Prints the mismatches as JSON.
_CHECK = """
import importlib
import json
import pkgutil
import sys
import types

order, names = sys.argv[1], sys.argv[2:]


def import_everything(name):
    module = importlib.import_module(name)
    for info in pkgutil.walk_packages(getattr(module, "__path__", ()), name + "."):
        importlib.import_module(info.name)


def mismatches(name):
    module = importlib.import_module(name)
    found = []
    for attr in module.__all__:
        value = getattr(module, attr)
        if isinstance(value, types.ModuleType):
            found.append(f"{name}.{attr} is the module {value.__name__}")
            continue
        home = getattr(value, "__module__", None)
        if home in sys.modules:
            bound = vars(sys.modules[home]).get(attr)
            if bound is not value:
                found.append(f"{name}.{attr} is not {home}.{attr}")
    return found


if order == "names":
    before = [m for name in names for m in mismatches(name)]
for name in names:
    import_everything(name)
after = [m for name in names for m in mismatches(name)]
print(json.dumps(before + after if order == "names" else after))
"""


@pytest.mark.parametrize("order", ["names", "modules"])
def test_lazy_exports_resolve_to_their_defining_objects(order):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK, order, *LAZY_MODULES],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
