"""``chaos-bench``: prove the stack recovers from faults *byte-identically*.

Two replays run under one named fault schedule (:data:`SCHEDULES`):

* **augment** — the Figure-1 pipeline on one domain, three arms: fault-free
  baseline, chaos (model wrapped in :class:`FlakyModel`, retries paced by a
  virtual clock), and a chaos repeat.  With a transient-only schedule the
  synthetic split must fingerprint identically across all three.
* **tables** — a Table-5 slice through the task-graph runtime, baseline vs
  chaos (worker crashes via real ``os._exit`` in pool workers, torn cache
  writes, LLM faults inside task bodies) plus a *repair* pass that re-runs
  the chaos cache fault-free and must detect and recompute every torn
  entry.  The eval cell must be identical in all three runs.

The report (``benchmarks/BENCH_resilience.json``) carries per-class
injection and recovery counts, retry histograms, dead letters and added
wall-clock, and the gates the CLI asserts (``--assert-identical``,
``--max-dead-letter``, breaker-ended-open).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

from repro import adapters, obs
from repro.datasets.records import Split
from repro.experiments.config import ExperimentConfig
from repro.experiments.tasks import (
    CORPUS_TASK,
    build_suite_graph,
    eval_task,
)
from repro.llm.models import GPT3_PROFILE, make_model
from repro.obs import get_tracer
from repro.obs.export import write_report as write_report  # re-exported
from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SYSTEM_CLOCK, FakeClock
from repro.resilience.faults import SCHEDULES, FaultPlan
from repro.resilience.flaky import FlakyModel
from repro.resilience.retry import RetryPolicy
from repro.runtime import Runtime
from repro.synthesis import AugmentationPipeline, PipelineConfig, TranslationConfig

#: Queries the augment replay generates (big enough for ~20+ LLM faults at
#: the schedules' rates, small enough to run in CI).
AUGMENT_TARGET = 80
AUGMENT_SEED = 77

#: Millisecond-scale backoff so chaos runs add negligible wall-clock even
#: where the real clock is used (task bodies inside worker processes).
FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.001, max_delay_s=0.004, budget_s=0.5
)


def chaos_config() -> ExperimentConfig:
    """A deliberately tiny experiment config for the tables replay."""
    return ExperimentConfig(
        name="chaos",
        domain_scale=0.15,
        spider_train_per_db=12,
        spider_dev_per_db=4,
        synth_targets={"cordis": 60, "sdss": 40, "oncomx": 40},
        synth_spider_per_db=6,
        dev_limit=6,
    )


def _fingerprint_split(split: Split) -> str:
    blob = json.dumps([pair.to_dict() for pair in split.pairs], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fingerprint_cell(cell) -> str:
    blob = json.dumps(asdict(cell), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _merge_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


# -- the augment replay --------------------------------------------------------


def _augment_arm(domain_name: str, plan: FaultPlan | None, breaker=None, label="arm"):
    """One pipeline run; returns (report, wall_s, breaker)."""
    domain = adapters.get_adapter(domain_name).build(scale=0.15)
    model = make_model(GPT3_PROFILE, seed=AUGMENT_SEED)
    if plan is not None:
        model = FlakyModel(model, plan)
    pipeline = AugmentationPipeline(
        domain,
        model=model,
        config=PipelineConfig(
            target_queries=AUGMENT_TARGET,
            seed=AUGMENT_SEED,
            translation=TranslationConfig(retry=FAST_RETRY),
        ),
        breaker=breaker,
        clock=FakeClock(),  # backoff is virtual: recovery adds no wall-clock
    )
    with get_tracer().span(f"chaos.augment.{label}", domain=domain_name):
        started = SYSTEM_CLOCK.now()
        report = pipeline.run(rng=random.Random(AUGMENT_SEED))
        wall_s = SYSTEM_CLOCK.now() - started
    return report, wall_s, breaker


def _run_augment(domain_name: str, spec: dict, registry: MetricsRegistry) -> dict:
    baseline, baseline_wall, _ = _augment_arm(domain_name, plan=None, label="baseline")

    chaos_plan = FaultPlan.from_spec(spec)
    breaker = CircuitBreaker("llm", failure_threshold=8, reset_timeout_s=0.5)
    chaos, chaos_wall, breaker = _augment_arm(
        domain_name, chaos_plan, breaker, label="chaos"
    )

    # A second chaos run under a fresh plan instance: the chaos run itself
    # must be deterministic, not merely equal to the baseline.
    repeat, _, _ = _augment_arm(
        domain_name, FaultPlan.from_spec(spec), label="chaos-repeat"
    )

    # Mirror the chaos arm's recovery accounting into the unified registry.
    chaos.resilience.publish(registry, prefix="chaos.augment")
    registry.counter("chaos.augment.dead_letters").inc(chaos.n_dead_lettered)

    base_fp = _fingerprint_split(baseline.split)
    chaos_fp = _fingerprint_split(chaos.split)
    return {
        "domain": domain_name,
        "target_queries": AUGMENT_TARGET,
        "n_pairs": {"baseline": baseline.n_pairs, "chaos": chaos.n_pairs},
        "identical": base_fp == chaos_fp,
        "chaos_repeat_identical": chaos_fp == _fingerprint_split(repeat.split),
        "faults_injected": dict(sorted(chaos_plan.injected.items())),
        "resilience": chaos.resilience.to_dict(),
        "dead_letters": [letter.to_dict() for letter in chaos.dead_letters],
        "n_dead_lettered": chaos.n_dead_lettered,
        "breaker": breaker.snapshot(),
        "wall_s": {"baseline": baseline_wall, "chaos": chaos_wall},
    }


# -- the tables replay ---------------------------------------------------------


def _run_tables(
    spec: dict, cache_root: Path, workers: int, registry: MetricsRegistry
) -> dict:
    config = chaos_config()
    target = eval_task("valuenet", "cordis", "both")
    retry_spec = FAST_RETRY.to_spec()
    tracer = get_tracer()

    baseline_rt = Runtime(workers=1, cache_dir=str(cache_root / "baseline"))
    with tracer.span("chaos.tables.baseline"):
        started = SYSTEM_CLOCK.now()
        baseline_cell = baseline_rt.run(build_suite_graph(config), [target])[target]
        baseline_wall = SYSTEM_CLOCK.now() - started

    # Chaos arm: LLM faults ride into the task bodies via params; worker
    # crashes and torn cache writes are the runtime's own injections.  The
    # chaos runtime records into the bench's unified registry.
    chaos_plan = FaultPlan.from_spec(spec)
    chaos_graph = build_suite_graph(
        config, llm_fault_spec=spec, retry_spec=retry_spec
    )
    chaos_rt = Runtime(
        workers=workers,
        cache_dir=str(cache_root / "chaos"),
        retry=FAST_RETRY,
        fault_plan=chaos_plan,
        metrics=registry,
    )
    with tracer.span("chaos.tables.chaos"):
        started = SYSTEM_CLOCK.now()
        chaos_cell = chaos_rt.run(chaos_graph, [target])[target]
        chaos_wall = SYSTEM_CLOCK.now() - started

    # Repair pass: a fresh fault-free runtime over the chaos cache must
    # detect every torn entry, recompute it, and still agree byte-for-byte.
    # The corpus artifact (always torn by the schedules' match rule) is
    # demanded explicitly — a cached downstream artifact would otherwise
    # prune the upstream subgraph and never touch the torn entry.
    repair_rt = Runtime(workers=1, cache_dir=str(cache_root / "chaos"))
    repair_graph = build_suite_graph(
        config, llm_fault_spec=spec, retry_spec=retry_spec
    )
    repair_cell = repair_rt.run(repair_graph, [CORPUS_TASK, target])[target]

    fingerprints = {
        "baseline": _fingerprint_cell(baseline_cell),
        "chaos": _fingerprint_cell(chaos_cell),
        "repair": _fingerprint_cell(repair_cell),
    }
    recovered = dict(chaos_rt.report.recovered)
    if repair_rt.cache.corrupt:
        recovered["cache-tear"] = repair_rt.cache.corrupt
    return {
        "target": target,
        "workers": workers,
        "identical": len(set(fingerprints.values())) == 1,
        "fingerprints": fingerprints,
        "faults_injected": dict(sorted(chaos_plan.injected.items())),
        "recovered": dict(sorted(recovered.items())),
        "retries": chaos_rt.report.retries,
        "torn_writes": chaos_rt.cache.tears,
        "repaired_entries": repair_rt.cache.corrupt,
        "corruption_kinds": dict(repair_rt.cache.corruption_kinds),
        "accuracy": {
            "baseline": baseline_cell.accuracy,
            "chaos": chaos_cell.accuracy,
        },
        "wall_s": {"baseline": baseline_wall, "chaos": chaos_wall},
    }


# -- entry point ---------------------------------------------------------------


def run_chaos_bench(
    schedule: str = "transient-small",
    domain: str = "cordis",
    cache_dir: str | Path | None = None,
    skip_tables: bool = False,
    workers: int = 2,
) -> dict:
    """Run both replays under ``schedule`` and return the bench report."""
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; pick one of {sorted(SCHEDULES)}"
        )
    spec = SCHEDULES[schedule]
    registry = MetricsRegistry()
    report: dict = {
        "schema_version": 1,
        "benchmark": "resilience",
        "schedule": schedule,
        "spec": spec,
        # Trace artifact of the enclosing ``trace`` run (None otherwise).
        "trace_path": obs.current_trace_path(),
        "augment": _run_augment(domain, spec, registry),
    }
    if not skip_tables:
        import tempfile

        if cache_dir is not None:
            root = Path(cache_dir)
            root.mkdir(parents=True, exist_ok=True)
            report["tables"] = _run_tables(spec, root, workers, registry)
        else:
            with tempfile.TemporaryDirectory(prefix="chaos-bench-") as tmp:
                report["tables"] = _run_tables(spec, Path(tmp), workers, registry)

    # Roll-up across phases: total injections, and per-class recoveries.
    faults: dict[str, int] = {}
    recovered: dict[str, int] = {}
    _merge_counts(faults, report["augment"]["faults_injected"])
    _merge_counts(recovered, report["augment"]["resilience"]["recovered"])
    identical = [report["augment"]["identical"],
                 report["augment"]["chaos_repeat_identical"]]
    dead = report["augment"]["n_dead_lettered"]
    breaker_open = report["augment"]["breaker"]["state"] == "open"
    if "tables" in report:
        _merge_counts(faults, report["tables"]["faults_injected"])
        _merge_counts(recovered, report["tables"]["recovered"])
        identical.append(report["tables"]["identical"])
    report["totals"] = {
        "faults_injected": sum(faults.values()),
        "faults_by_kind": dict(sorted(faults.items())),
        "recovered_by_kind": dict(sorted(recovered.items())),
    }
    report["identical"] = all(identical)
    report["dead_lettered"] = dead
    report["breaker_ended_open"] = breaker_open
    # Unified-registry snapshot: chaos-arm runtime + resilience instruments.
    report["registry"] = registry.snapshot()
    return report


def render_report(report: dict) -> str:
    """Human-readable summary of one chaos-bench report."""
    totals = report["totals"]
    lines = [
        f"chaos-bench: schedule {report['schedule']!r} — "
        f"{totals['faults_injected']} faults injected",
        "  recovered by kind: "
        + (
            ", ".join(
                f"{kind}={count}"
                for kind, count in totals["recovered_by_kind"].items()
            )
            or "none"
        ),
    ]
    augment = report["augment"]
    lines.append(
        f"  augment[{augment['domain']}]: "
        f"{augment['n_pairs']['chaos']}/{augment['n_pairs']['baseline']} pairs, "
        f"identical={augment['identical']}, "
        f"dead-lettered={augment['n_dead_lettered']}, "
        f"breaker={augment['breaker']['state']}, "
        f"chaos wall {augment['wall_s']['chaos']:.2f}s "
        f"(baseline {augment['wall_s']['baseline']:.2f}s)"
    )
    tables = report.get("tables")
    if tables:
        lines.append(
            f"  tables[{tables['target']}]: identical={tables['identical']}, "
            f"retries={tables['retries']}, torn_writes={tables['torn_writes']}, "
            f"repaired={tables['repaired_entries']}, "
            f"chaos wall {tables['wall_s']['chaos']:.2f}s "
            f"(baseline {tables['wall_s']['baseline']:.2f}s)"
        )
    lines.append(
        f"  verdict: identical={report['identical']} "
        f"dead_lettered={report['dead_lettered']} "
        f"breaker_ended_open={report['breaker_ended_open']}"
    )
    return "\n".join(lines)
