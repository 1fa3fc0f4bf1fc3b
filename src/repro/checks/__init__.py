"""``repro.checks`` — the repo's own determinism/concurrency static analyzer.

Two halves:

* **Static rules** (:mod:`~repro.checks.determinism`,
  :mod:`~repro.checks.concurrency`, :mod:`~repro.checks.hygiene`) run over
  the repo's Python source through the AST engine
  (:mod:`~repro.checks.engine`) and gate ``sciencebenchmark check``.
* **Runtime lock-order recording** (:mod:`~repro.checks.lockorder`)
  watches actual lock acquisitions under ``REPRO_CHECKS=1`` and flags
  cyclic ordering (potential deadlocks) the static rules cannot see.

Only the lock factory is imported eagerly — it sits on the import path of
``repro.obs`` and ``repro.resilience`` and must stay featherweight; the
analysis machinery loads on first use via PEP 562.
"""

from __future__ import annotations

from repro.checks.lockorder import (
    LockOrderMonitor,
    LockOrderViolation,
    MonitoredLock,
    current_monitor,
    install,
    new_lock,
    uninstall,
)
from repro.lazy import lazy_exports

__all__ = [
    "ALL_RULES",
    "CheckReport",
    "Finding",
    "LockOrderMonitor",
    "LockOrderViolation",
    "MonitoredLock",
    "current_monitor",
    "install",
    "new_lock",
    "render_json",
    "render_terminal",
    "run_checks",
    "uninstall",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.checks.runner": ("ALL_RULES", "CheckReport", "run_checks"),
        "repro.checks.engine": ("Finding",),
        "repro.checks.report": ("render_terminal", "render_json"),
    },
)
