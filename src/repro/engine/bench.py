"""Engine micro-benchmark: native vs vector vs sqlite on the gold workloads.

``sciencebenchmark engine-bench`` times the same query set on every
execution arm and reports per-arm latency histograms plus the vector
engine's speedup over the row engine — the Table-5/serve-bench execute
stage is exactly this workload, so the speedup here is the speedup those
paths observe.

Two workloads:

* ``table5`` — every gold query (seed + dev), each timed as the minimum
  over ``repeat`` runs.  The steady-state per-query cost: plan and column
  caches are warm after the first run, mirroring how evaluation executes
  each gold query once per predicted query.
* ``serve`` — the dev split streamed ``repeat`` times in arrival order,
  every execution timed.  The serve-bench execute histogram: repeated
  questions hit the vector engine's plan/selection caches the way a
  server's repeated requests do.

Correctness rides along: the vector arm must be byte-identical to native
on every query (its engine contract) and the sqlite arm must agree under
the tolerant cross-engine comparison of :mod:`repro.engine.diffexec`.
``--assert-speedup``/``--assert-identical`` turn both into CI gates.
"""

from __future__ import annotations

from repro.datasets.records import BenchmarkDomain
from repro.engine.backends import get_backend
from repro.engine.diffexec import _identical, _results_agree
from repro.engine.executor import Executor, Result
from repro.engine.vector import VectorEngine
from repro.errors import ReproError
from repro.obs import get_tracer
from repro.obs.export import bench_envelope, percentile
from repro.obs.metrics import MetricsRegistry
from repro.resilience.clock import SYSTEM_CLOCK
from repro.sql import parse

#: Execution arms, in report order.  Native is the baseline arm every
#: other arm is compared against.
ARMS = ("native", "vector", "sqlite")

WORKLOADS = ("table5", "serve")


def _workload_queries(domain: BenchmarkDomain, workload: str, repeat: int):
    """``(sql, parsed)`` pairs of the workload, in execution order."""
    if workload == "table5":
        pairs = list(domain.seed.pairs) + list(domain.dev.pairs)
        stream = [pair.sql for pair in pairs]
    elif workload == "serve":
        stream = [pair.sql for pair in domain.dev.pairs] * max(1, repeat)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")
    return [(sql, parse(sql)) for sql in stream]


class _NativeArm:
    """Row engine, pre-parsed queries (the execute-stage measure)."""

    name = "native"

    def __init__(self, domain: BenchmarkDomain) -> None:
        self._executor = Executor(domain.database)

    def execute(self, sql: str, query) -> Result:
        return self._executor.execute(query)

    def counters(self) -> dict:
        return {}


class _VectorArm:
    """Vector engine, pre-parsed queries; counters expose fallbacks/plans."""

    name = "vector"

    def __init__(self, domain: BenchmarkDomain) -> None:
        self._metrics = MetricsRegistry()
        self._engine = VectorEngine(domain.database, metrics=self._metrics)

    def execute(self, sql: str, query) -> Result:
        return self._engine.execute(query)

    def counters(self) -> dict:
        return {
            name.rsplit(".", 1)[-1]: entry["value"]
            for name, entry in self._metrics.snapshot().items()
            if name.startswith("engine.vector.") and entry["kind"] == "counter"
        }


class _BackendArm:
    """A registered :class:`ExecutionBackend` (sqlite) fed SQL text —
    its own parser is part of its inherent cost."""

    def __init__(self, name: str, domain: BenchmarkDomain) -> None:
        self.name = name
        self._backend = get_backend(name)
        self._backend.load(domain.database)

    def execute(self, sql: str, query) -> Result:
        return self._backend.execute(sql)

    def counters(self) -> dict:
        return {}


def _make_arm(name: str, domain: BenchmarkDomain):
    if name == "native":
        return _NativeArm(domain)
    if name == "vector":
        return _VectorArm(domain)
    return _BackendArm(name, domain)


def _time_arm(arm, queries, workload: str, repeat: int):
    """``(per_query_seconds, results, errors)`` for one arm over the stream.

    ``table5`` takes the per-query minimum over ``repeat`` runs (steady
    state); ``serve`` times every streamed execution once.  ``results``
    holds the first run's result per query (None on error) for the
    cross-arm agreement checks.
    """
    clock = SYSTEM_CLOCK
    times: list[float] = []
    results: list[Result | None] = []
    errors = 0
    runs = repeat if workload == "table5" else 1
    for sql, query in queries:
        best = None
        result = None
        failed = False
        for _ in range(max(1, runs)):
            start = clock.now()
            try:
                outcome = arm.execute(sql, query)
            except (ReproError, RecursionError):
                failed = True
                break
            elapsed = clock.now() - start
            best = elapsed if best is None else min(best, elapsed)
            if result is None:
                result = outcome
        if failed or best is None:
            errors += 1
            results.append(None)
        else:
            times.append(best)
            results.append(result)
    return times, results, errors


def _agreement(
    baseline: list[Result | None],
    candidate: list[Result | None],
    queries,
    strict: bool,
) -> dict:
    """Cross-arm agreement summary vs the native baseline."""
    mismatches = []
    compared = 0
    for (sql, _), mine, theirs in zip(queries, baseline, candidate):
        if mine is None or theirs is None:
            # A query only one arm rejects shows up in the arm's error
            # count; diff-exec is the dedicated gate for those.
            continue
        compared += 1
        agrees = _identical(mine, theirs) if strict else _results_agree(
            sql, mine, theirs
        )
        if not agrees and len(mismatches) < 5:
            mismatches.append(sql)
    return {
        "compared": compared,
        "mismatches": len(mismatches),
        "sample": mismatches,
        "identical" if strict else "agree": not mismatches,
    }


def run_engine_bench(
    domains: dict[str, BenchmarkDomain],
    workload: str = "table5",
    repeat: int = 5,
    arms: tuple[str, ...] = ARMS,
) -> dict:
    """Benchmark every arm on every domain; the JSON-ready report."""
    tracer = get_tracer()
    report: dict = {
        **bench_envelope("engine-bench", seed=None, repeat=repeat),
        "workload": workload,
        "arms": list(arms),
        "domains": {},
    }
    ratio_pool: list[float] = []
    total_native = total_vector = 0.0
    identical = True
    with tracer.span("engine.bench", workload=workload, repeat=repeat):
        for name, domain in sorted(domains.items()):
            queries = _workload_queries(domain, workload, repeat)
            entry: dict = {"n_queries": len(queries), "arms": {}}
            timings: dict[str, list[float]] = {}
            outcomes: dict[str, list[Result | None]] = {}
            for arm_name in arms:
                arm = _make_arm(arm_name, domain)
                with tracer.span("engine.bench.arm", domain=name, arm=arm_name):
                    times, results, errors = _time_arm(
                        arm, queries, workload, repeat
                    )
                timings[arm_name] = times
                outcomes[arm_name] = results
                entry["arms"][arm_name] = {
                    "p50_us": round(percentile(times, 0.50) * 1e6, 1),
                    "p95_us": round(percentile(times, 0.95) * 1e6, 1),
                    "total_ms": round(sum(times) * 1e3, 3),
                    "errors": errors,
                    **({"counters": arm.counters()} if arm.counters() else {}),
                }
            if "native" in arms and "vector" in arms:
                ratios = [
                    n / v
                    for n, v, rn, rv in zip(
                        timings["native"], timings["vector"],
                        outcomes["native"], outcomes["vector"],
                    )
                    if v > 0 and rn is not None and rv is not None
                ]
                ratio_pool.extend(ratios)
                total_native += sum(timings["native"])
                total_vector += sum(timings["vector"])
                entry["speedup_p50"] = round(percentile(ratios, 0.50), 2)
                entry["speedup_total"] = round(
                    sum(timings["native"]) / max(sum(timings["vector"]), 1e-12), 2
                )
                entry["vector_vs_native"] = _agreement(
                    outcomes["native"], outcomes["vector"], queries, strict=True
                )
                identical = identical and entry["vector_vs_native"]["identical"]
            if "native" in arms and "sqlite" in arms:
                entry["sqlite_vs_native"] = _agreement(
                    outcomes["native"], outcomes["sqlite"], queries, strict=False
                )
            report["domains"][name] = entry
    if ratio_pool:
        report["overall"] = {
            "speedup_p50": round(percentile(ratio_pool, 0.50), 2),
            "speedup_total": round(total_native / max(total_vector, 1e-12), 2),
            "vector_identical": identical,
        }
    return report


def evaluate_engine_gates(
    report: dict,
    assert_speedup: float | None = None,
    assert_identical: bool = False,
) -> list[str]:
    """CI gate failures (empty when every requested gate holds)."""
    failures = []
    overall = report.get("overall", {})
    if assert_speedup is not None:
        speedup = overall.get("speedup_p50", 0.0)
        if speedup < assert_speedup:
            failures.append(
                f"vector p50 speedup {speedup:.2f}x is below the required "
                f"{assert_speedup:.2f}x"
            )
    if assert_identical:
        if not overall.get("vector_identical", False):
            failures.append("vector results are not byte-identical to native")
        for name, entry in sorted(report.get("domains", {}).items()):
            agreement = entry.get("sqlite_vs_native")
            if agreement is not None and not agreement["agree"]:
                failures.append(
                    f"sqlite disagrees with the engine on {name}: "
                    + "; ".join(agreement["sample"][:2])
                )
    return failures


def render_report(report: dict) -> str:
    lines = [
        f"engine-bench [{report['workload']}] x{report['repeat']}: "
        + ", ".join(report["arms"])
    ]
    for name, entry in sorted(report["domains"].items()):
        lines.append(f"  {name} ({entry['n_queries']} queries)")
        for arm_name in report["arms"]:
            arm = entry["arms"][arm_name]
            note = f", {arm['errors']} errors" if arm["errors"] else ""
            counters = arm.get("counters", {})
            if counters.get("fallbacks"):
                note += f", {counters['fallbacks']} fallbacks"
            lines.append(
                f"    {arm_name:7s} p50 {arm['p50_us']:9.1f}us  "
                f"p95 {arm['p95_us']:9.1f}us  total {arm['total_ms']:8.1f}ms"
                + note
            )
        if "speedup_p50" in entry:
            check = "ok" if entry["vector_vs_native"]["identical"] else "MISMATCH"
            lines.append(
                f"    vector speedup: p50 {entry['speedup_p50']}x, "
                f"total {entry['speedup_total']}x (identity {check})"
            )
    overall = report.get("overall")
    if overall:
        lines.append(
            f"  overall: vector {overall['speedup_p50']}x p50 / "
            f"{overall['speedup_total']}x total vs native, byte-identical="
            + str(overall["vector_identical"]).lower()
        )
    return "\n".join(lines)


__all__ = [
    "ARMS",
    "WORKLOADS",
    "evaluate_engine_gates",
    "render_report",
    "run_engine_bench",
]
