"""``robustness-bench``: run the perturbation matrix and grade the damage.

The bench materializes every ``pcell`` of the matrix through the task-graph
runtime, then aggregates a per-axis hardness/robustness breakdown: for each
family, severity, domain, system and Spider hardness class, the mean
accuracy and the mean *degradation* (baseline accuracy minus perturbed
accuracy, positive = the perturbation hurt).

The report (``benchmarks/BENCH_robustness.json``) is
deliberately free of wall-clock and cache-statistics noise: for a fixed
seed it is **byte-identical** across worker counts and across warm/cold
caches — the property the CI smoke and the determinism suite assert.  Run
statistics live in the :class:`~repro.runtime.RunReport` (``--timings``).

Chaos composition: ``fault_schedule`` threads a named
:class:`~repro.resilience.faults.FaultPlan` through the same runtime, so
worker crashes and torn cache writes strike the very tasks that build and
evaluate perturbed domains; the recovered run must still produce the
byte-identical report (the resilience layer's contract), with the injection
and recovery counts surfaced under ``"faults"``.
"""

from __future__ import annotations

from dataclasses import asdict

from repro import adapters, obs
from repro.errors import PerturbationError
from repro.obs.export import bench_envelope
from repro.obs.metrics import MetricsRegistry
from repro.perturb import FAMILY_NAMES, SEVERITIES
from repro.perturb.base import BASELINE_FAMILY
from repro.perturb.tasks import build_matrix_graph, matrix_targets
from repro.resilience.chaosbench import FAST_RETRY
from repro.resilience.faults import SCHEDULES, FaultPlan
from repro.runtime import RunReport, Runtime

DEFAULT_SYSTEMS = ("valuenet",)


def run_robustness_bench(
    domains: tuple[str, ...] | None = None,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    families: tuple[str, ...] = FAMILY_NAMES,
    severities: tuple[int, ...] = SEVERITIES,
    seed: int = 2023,
    scale: float = 0.2,
    dev_limit: int | None = 12,
    workers: int = 1,
    cache_dir: str | None = None,
    fault_schedule: str | None = None,
) -> tuple[dict, RunReport]:
    """Run the matrix; returns ``(report, runtime run-report)``."""
    for family in families:
        if family not in FAMILY_NAMES:
            raise PerturbationError(
                f"unknown perturbation family {family!r}; available "
                "families: " + ", ".join(FAMILY_NAMES)
            )
    domains = tuple(domains) if domains else adapters.list_adapters()
    systems = tuple(systems)
    families = tuple(families)
    severities = tuple(severities)

    fault_plan = None
    retry = None
    if fault_schedule is not None:
        if fault_schedule not in SCHEDULES:
            raise PerturbationError(
                f"unknown fault schedule {fault_schedule!r}; pick one of "
                + ", ".join(sorted(SCHEDULES))
            )
        fault_plan = FaultPlan.from_spec(SCHEDULES[fault_schedule])
        retry = FAST_RETRY

    graph = build_matrix_graph(
        domains, systems, families, severities, seed, scale, dev_limit
    )
    targets = matrix_targets(domains, systems, families, severities)
    runtime = Runtime(
        workers=workers,
        cache_dir=cache_dir,
        retry=retry,
        fault_plan=fault_plan,
        metrics=MetricsRegistry(),
    )
    with obs.get_tracer().span(
        "robustness.matrix", n_cells=len(targets), workers=workers
    ):
        results = runtime.run(graph, targets)
    cells = [results[name] for name in targets]

    report = _assemble_report(
        cells,
        domains=domains,
        systems=systems,
        families=families,
        severities=severities,
        seed=seed,
        scale=scale,
        dev_limit=dev_limit,
    )
    if fault_plan is not None:
        recovered = dict(runtime.report.recovered)
        report["faults"] = {
            "schedule": fault_schedule,
            "spec": SCHEDULES[fault_schedule],
            "injected": dict(sorted(fault_plan.injected.items())),
            "recovered": dict(sorted(recovered.items())),
            "retries": runtime.report.retries,
            "torn_writes": runtime.cache.tears,
        }
    return report, runtime.report


def _assemble_report(
    cells, *, domains, systems, families, severities, seed, scale, dev_limit
) -> dict:
    baselines = {
        f"{cell.system}:{cell.domain}": cell.accuracy
        for cell in cells
        if cell.family == BASELINE_FAMILY
    }
    baseline_hardness: dict[str, dict] = {}
    for cell in cells:
        if cell.family != BASELINE_FAMILY:
            continue
        for hardness, bucket in cell.by_hardness.items():
            agg = baseline_hardness.setdefault(hardness, {"n": 0, "correct": 0})
            agg["n"] += bucket["n"]
            agg["correct"] += bucket["correct"]

    cell_dicts = []
    for cell in cells:
        entry = asdict(cell)
        baseline = baselines.get(f"{cell.system}:{cell.domain}")
        entry["baseline_accuracy"] = baseline
        entry["degradation"] = (
            None
            if baseline is None or cell.family == BASELINE_FAMILY
            else round(baseline - cell.accuracy, 6)
        )
        cell_dicts.append(entry)

    perturbed = [c for c in cell_dicts if c["family"] != BASELINE_FAMILY]

    def axis(key) -> dict:
        groups: dict = {}
        for cell in perturbed:
            groups.setdefault(str(key(cell)), []).append(cell)
        return {
            name: {
                "n_cells": len(group),
                "mean_accuracy": round(
                    sum(c["accuracy"] for c in group) / len(group), 6
                ),
                "mean_degradation": round(
                    sum(c["degradation"] or 0.0 for c in group) / len(group), 6
                ),
            }
            for name, group in sorted(groups.items())
        }

    perturbed_hardness: dict[str, dict] = {}
    for cell in perturbed:
        for hardness, bucket in cell["by_hardness"].items():
            agg = perturbed_hardness.setdefault(hardness, {"n": 0, "correct": 0})
            agg["n"] += bucket["n"]
            agg["correct"] += bucket["correct"]
    by_hardness = {}
    for hardness in sorted(set(baseline_hardness) | set(perturbed_hardness)):
        base = baseline_hardness.get(hardness, {"n": 0, "correct": 0})
        pert = perturbed_hardness.get(hardness, {"n": 0, "correct": 0})
        base_acc = base["correct"] / base["n"] if base["n"] else None
        pert_acc = pert["correct"] / pert["n"] if pert["n"] else None
        by_hardness[hardness] = {
            "baseline": {**base, "accuracy": _round(base_acc)},
            "perturbed": {**pert, "accuracy": _round(pert_acc)},
            "degradation": (
                _round(base_acc - pert_acc)
                if base_acc is not None and pert_acc is not None
                else None
            ),
        }

    invariant_cells = [c for c in cell_dicts if c["invariance"] is not None]
    invariance = None
    if invariant_cells:
        invariance = {
            "checked": sum(c["invariance"]["checked"] for c in invariant_cells),
            "identical": all(c["invariance"]["identical"] for c in invariant_cells),
            "mismatched": sorted(
                {
                    sql
                    for c in invariant_cells
                    for sql in c["invariance"]["mismatched"]
                }
            ),
            "by_family": axis(lambda c: c["family"]) and {
                family: sum(
                    c["invariance"]["checked"]
                    for c in invariant_cells
                    if c["family"] == family
                )
                for family in sorted({c["family"] for c in invariant_cells})
            },
        }

    return {
        **bench_envelope("robustness", seed=seed, repeat=1),
        "scale": scale,
        "dev_limit": dev_limit,
        "matrix": {
            "domains": list(domains),
            "systems": list(systems),
            "families": list(families),
            "severities": list(severities),
            "n_cells": len(cell_dicts),
        },
        "baselines": {
            key: _round(value) for key, value in sorted(baselines.items())
        },
        "cells": cell_dicts,
        "axes": {
            "by_family": axis(lambda c: c["family"]),
            "by_severity": axis(lambda c: c["severity"]),
            "by_domain": axis(lambda c: c["domain"]),
            "by_system": axis(lambda c: c["system"]),
            "by_hardness": by_hardness,
        },
        "invariance": invariance,
    }


def _round(value):
    return None if value is None else round(value, 6)


def evaluate_robustness_gates(
    report: dict,
    *,
    max_degradation: float | None = None,
    assert_invariant: bool = False,
) -> list[str]:
    """Every gate violation in a report (empty = the run passes)."""
    failures: list[str] = []
    if max_degradation is not None:
        for family, stats in report["axes"]["by_family"].items():
            if stats["mean_degradation"] > max_degradation:
                failures.append(
                    f"family {family!r}: mean degradation "
                    f"{stats['mean_degradation']:+.3f} exceeds the budget "
                    f"of {max_degradation:+.3f}"
                )
    if assert_invariant:
        invariance = report.get("invariance")
        if invariance is None or not invariance["checked"]:
            failures.append(
                "--assert-invariant needs an invariant family in the run "
                "(include the distractor family)"
            )
        elif not invariance["identical"]:
            failures.append(
                f"distractor invariance violated: "
                f"{len(invariance['mismatched'])} gold quer"
                f"{'y' if len(invariance['mismatched']) == 1 else 'ies'} "
                "changed results under schema widening"
            )
    return failures


def render_report(report: dict) -> str:
    """Human-readable summary of one robustness-bench report."""
    matrix = report["matrix"]
    lines = [
        f"robustness-bench: {matrix['n_cells']} cells — "
        f"{len(matrix['families'])} families x severities "
        f"{matrix['severities']} over {', '.join(matrix['domains'])} "
        f"({', '.join(matrix['systems'])})"
    ]
    for key, value in sorted(report["baselines"].items()):
        lines.append(f"  baseline {key}: accuracy {value:.3f}")
    for family, stats in report["axes"]["by_family"].items():
        lines.append(
            f"  family {family:<11s} accuracy {stats['mean_accuracy']:.3f}  "
            f"degradation {stats['mean_degradation']:+.3f}  "
            f"({stats['n_cells']} cells)"
        )
    for severity, stats in report["axes"]["by_severity"].items():
        lines.append(
            f"  severity {severity}: accuracy {stats['mean_accuracy']:.3f}  "
            f"degradation {stats['mean_degradation']:+.3f}"
        )
    hardness = report["axes"]["by_hardness"]
    if hardness:
        parts = []
        for cls, stats in hardness.items():
            delta = stats["degradation"]
            parts.append(
                f"{cls}={delta:+.3f}" if delta is not None else f"{cls}=n/a"
            )
        lines.append("  hardness degradation: " + ", ".join(parts))
    invariance = report.get("invariance")
    if invariance:
        lines.append(
            f"  invariance: {invariance['checked']} gold results checked, "
            f"identical={invariance['identical']}"
        )
    faults = report.get("faults")
    if faults:
        lines.append(
            f"  faults[{faults['schedule']}]: "
            f"{sum(faults['injected'].values())} injected, "
            f"recovered={faults['recovered'] or 'none'}, "
            f"retries={faults['retries']}, torn_writes={faults['torn_writes']}"
        )
    return "\n".join(lines)
