"""Command-line interface: ``sciencebenchmark <command>``.

Commands
--------
``tables``     regenerate one or all paper tables (1, 2, 3, 4, 5)
``figures``    regenerate the Figure 1 / Figure 2 walk-throughs
``augment``    run the pipeline for one domain and write the Synth split
``stats``      print the per-domain split statistics
``lint``       static-analyze the gold queries and data of the domains
``check``      static-analyze the repo's own Python source against the
               determinism/concurrency/hygiene rule packs
``serve-bench`` benchmark the serving layer (unbatched/batched/fleet arms)
``chaos-bench`` replay the pipeline and a Table-5 slice under a named
               fault schedule and assert byte-identical recovery
``robustness-bench`` run the scenario matrix (system x domain x
               perturbation family x severity) and report the per-axis
               hardness/robustness breakdown with degradation deltas
``diff-exec``  differentially execute a domain's query sets on the in-repo
               engine and an alternative backend (sqlite, vector, or the
               three-way ``all`` gate) and report divergences
``engine-bench`` time the native/vector/sqlite engines on the gold
               workloads, check cross-engine agreement and gate the vector
               speedup
``explain``    print the vector engine's costed plan tree for one query
``trace``      run any other command under the tracer and export a Chrome
               trace, a JSONL span log and a terminal flame summary

All commands accept ``--preset quick|full`` (default quick) and are fully
deterministic: for a fixed seed, ``--workers 4`` produces byte-identical
output to ``--workers 1``.  Domain selection is uniform: ``--domain NAME``
(repeatable) restricts any command to a subset of the registered adapters,
and ``--adapter PATH`` registers an extra single-file domain adapter before
the command runs — both validated against :func:`repro.adapters.list_adapters`.
Artifacts are built through the task-graph runtime — ``--workers`` fans
independent tasks across processes, ``--cache-dir``/``--no-cache`` control
the content-addressed artifact cache (default ``.repro-cache/``), and
``--timings`` prints the per-task runtime report to stderr.  Failures exit
non-zero: 1 for benchmark errors (including lint findings), 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import sys


def _add_shared_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Preset + runtime flags, accepted before *or* after the subcommand.

    The subparser copies use ``SUPPRESS`` defaults so a flag given before the
    subcommand is not clobbered by the subparser's default afterwards.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--preset", choices=("quick", "full"), default=default("quick"),
        help="experiment scale preset (default: quick)",
    )
    parser.add_argument(
        "--workers", type=int, default=default(1), metavar="N",
        help="worker processes for independent artifact builds (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=default(".repro-cache"), metavar="PATH",
        help="artifact cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", default=default(False),
        help="disable the content-addressed artifact cache",
    )
    parser.add_argument(
        "--timings", action="store_true", default=default(False),
        help="print the runtime report (per-task wall time, cache hits) to stderr",
    )
    parser.add_argument(
        "--domain", action="append", default=default(None), metavar="NAME",
        help="restrict to a registered domain adapter; repeatable "
             "(default: every registered adapter)",
    )
    parser.add_argument(
        "--adapter", action="append", default=default(None), metavar="PATH",
        help="register a domain adapter from a Python file or module path "
             "before running; repeatable",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sciencebenchmark",
        description="ScienceBenchmark (VLDB 2023) reproduction harness",
    )
    _add_shared_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(*args, **kwargs):
        command = sub.add_parser(*args, **kwargs)
        _add_shared_flags(command, suppress=True)
        return command

    tables = add_command("tables", help="regenerate paper tables")
    tables.add_argument(
        "which", nargs="*", default=["1", "2", "4"],
        help="table numbers (1-5); default: the fast ones (1, 2, 4)",
    )

    add_command("figures", help="regenerate Figure 1 and Figure 2")

    augment = add_command(
        "augment", help="run the pipeline for one domain (exactly one --domain)"
    )
    augment.add_argument("--out", default=None, help="write the Synth split as JSON")
    augment.add_argument(
        "--target", type=int, default=None, metavar="N",
        help="override the pipeline's target query count",
    )
    augment.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="override the pipeline's RNG seed",
    )

    add_command("stats", help="print split statistics for all domains")

    lint = add_command(
        "lint", help="static-analyze gold queries and data integrity"
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on warnings, not only errors",
    )

    check = add_command(
        "check",
        help="static-analyze the repo's own source for determinism, "
             "concurrency and hygiene violations",
    )
    check.add_argument(
        "paths", nargs="*", default=[], metavar="path",
        help="files or directories to scan (default: the repro package)",
    )
    check.add_argument(
        "--format", choices=("terminal", "json"), default="terminal",
        help="report format (default: terminal)",
    )
    check.add_argument(
        "--select", default=None, metavar="RULE,...",
        help="comma-separated rule ids or packs (e.g. det,con.blocking-async)",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print every shipped rule with its severity and exit",
    )

    serve = add_command(
        "serve-bench",
        help="load-test the serving layer: unbatched vs batched vs (with "
             "--replicas) a sharded multi-replica fleet, plus an open-loop "
             "multi-tenant soak arm under --qps",
    )
    serve.add_argument(
        "--system", choices=("valuenet", "t5-large", "smbop"), default="valuenet",
        help="NL-to-SQL system to serve (default: valuenet)",
    )
    serve.add_argument(
        "--regime", choices=("zero", "seed", "synth", "both"), default="both",
        help="training regime of the served systems (default: both)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=16, metavar="N",
        help="closed-loop client concurrency (default: 16)",
    )
    serve.add_argument(
        "--repeat", type=int, default=4, metavar="N",
        help="times each dev question appears in the stream (default: 4)",
    )
    serve.add_argument(
        "--qps", type=float, default=None, metavar="Q",
        help="open-loop offered rate; with --replicas >= 2 this drives a "
             "sustained multi-tenant soak arm against the fleet, otherwise "
             "it paces the base arms instead of the closed loop",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="replica slots behind the fleet router; >= 2 adds the fleet "
             "arm (default: 1 = no fleet)",
    )
    serve.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="tenants the soak arm round-robins requests over (default: 4)",
    )
    serve.add_argument(
        "--soak-requests", type=int, default=None, metavar="N",
        help="cap on soak-arm requests (default: the full stream)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=None, metavar="Q",
        help="per-tenant token-bucket refill rate for the soak arm "
             "(default: no quotas)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=None, metavar="N",
        help="per-tenant token-bucket burst size (default: the rate)",
    )
    serve.add_argument(
        "--allow-rejections", action="store_true",
        help="tolerate admission rejections under deliberate overload "
             "(quota rejections never gate; failures/timeouts always do)",
    )
    serve.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="cap the total request count",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="micro-batch size limit of the batched arm (default: 8)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0, metavar="MS",
        help="micro-batch coalescing window (default: 2.0)",
    )
    serve.add_argument(
        "--execute", action="store_true",
        help="also execute the predicted SQL against the domain databases",
    )
    serve.add_argument(
        "--out", default="benchmarks/BENCH_serving.json", metavar="PATH",
        help="report destination (default: benchmarks/BENCH_serving.json)",
    )
    serve.add_argument(
        "--assert-speedup", type=float, default=None, metavar="MIN",
        help="exit 1 unless batched/unbatched throughput >= MIN",
    )
    serve.add_argument(
        "--assert-p95-ms", type=float, default=None, metavar="MS",
        help="exit 1 unless the batched arm's p95 latency <= MS",
    )
    serve.add_argument(
        "--assert-p99-ms", type=float, default=None, metavar="MS",
        help="exit 1 unless the batched arm's p99 latency <= MS",
    )
    serve.add_argument(
        "--assert-fairness", type=float, default=None, metavar="X",
        help="exit 1 unless the soak arm's worst/best tenant p95 ratio <= X",
    )
    serve.add_argument(
        "--assert-fleet-gain", action="store_true",
        help="exit 1 unless the fleet arm shows >= 2x throughput or <= 0.5x "
             "queue-stage p95 vs the batched arm",
    )

    trace = add_command(
        "trace",
        help="run any sciencebenchmark command under the tracer and export "
             "a Chrome trace, a span log and a flame summary",
    )
    trace.add_argument(
        "--trace-dir", default="traces", metavar="PATH",
        help="directory for trace artifacts (default: traces)",
    )
    trace.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command",
        help="the command to trace, with its own flags after it",
    )

    chaos = add_command(
        "chaos-bench",
        help="replay the pipeline and a Table-5 slice under a fault "
             "schedule; verify recovery is byte-identical",
    )
    chaos.add_argument(
        "--schedule", default="transient-small",
        choices=("transient-small", "transient-heavy", "permanent-mix"),
        help="named fault schedule (default: transient-small)",
    )
    chaos.add_argument(
        "--skip-tables", action="store_true",
        help="skip the (slower) Table-5 runtime replay",
    )
    chaos.add_argument(
        "--assert-identical", action="store_true",
        help="exit 1 unless chaos output is byte-identical to fault-free",
    )
    chaos.add_argument(
        "--max-dead-letter", type=int, default=None, metavar="N",
        help="exit 1 when more than N queries were dead-lettered",
    )
    chaos.add_argument(
        "--out", default="benchmarks/BENCH_resilience.json", metavar="PATH",
        help="report destination (default: benchmarks/BENCH_resilience.json)",
    )

    robust = add_command(
        "robustness-bench",
        help="run the scenario matrix (system x domain x perturbation "
             "family x severity) and report hardness/robustness breakdowns "
             "with degradation-vs-baseline deltas",
    )
    robust.add_argument(
        "--family", action="append", metavar="NAME", default=None,
        choices=("distractor", "drift", "paraphrase", "rename", "synth"),
        help="perturbation family to include; repeatable (default: all five)",
    )
    robust.add_argument(
        "--severity", action="append", type=int, choices=(1, 2, 3),
        default=None, metavar="S",
        help="severity level to include; repeatable (default: 1 2 3)",
    )
    robust.add_argument(
        "--system", action="append", default=None,
        choices=("valuenet", "t5-large", "smbop"),
        help="NL-to-SQL system to evaluate; repeatable (default: valuenet)",
    )
    robust.add_argument(
        "--seed", type=int, default=2023, metavar="S",
        help="base seed of the matrix (default: 2023)",
    )
    robust.add_argument(
        "--scale", type=float, default=0.2, metavar="X",
        help="domain data scale for the matrix (default: 0.2)",
    )
    robust.add_argument(
        "--dev-limit", type=int, default=12, metavar="N",
        help="dev pairs evaluated per cell; 0 = the full split (default: 12)",
    )
    robust.add_argument(
        "--fault-schedule", default=None,
        choices=("transient-small", "transient-heavy", "permanent-mix"),
        help="also inject this resilience fault schedule into the matrix "
             "run (chaos composition; default: no faults)",
    )
    robust.add_argument(
        "--out", default="benchmarks/BENCH_robustness.json", metavar="PATH",
        help="report destination (default: benchmarks/BENCH_robustness.json)",
    )
    robust.add_argument(
        "--assert-max-degradation", type=float, default=None, metavar="X",
        help="exit 1 when any family's mean degradation exceeds X",
    )
    robust.add_argument(
        "--assert-invariant", action="store_true",
        help="exit 1 unless every distractor-widened gold query returned "
             "exactly the baseline rows",
    )

    diff = add_command(
        "diff-exec",
        help="differentially execute a domain's query sets on the in-repo "
             "engine and an alternative backend; report divergences",
    )
    diff.add_argument(
        "--backend", choices=("sqlite", "vector", "all"), default="sqlite",
        help="execution backend to compare against; 'all' runs the "
             "three-way gate (engine vs vector strict, engine vs sqlite "
             "tolerant) (default: sqlite)",
    )
    diff.add_argument(
        "--splits", choices=("gold", "silver", "all"), default="gold",
        help="query sets to execute: gold (seed+dev, built bare), silver "
             "(the synth split, built through the suite) or all "
             "(default: gold)",
    )
    diff.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON divergence report",
    )

    engine = add_command(
        "engine-bench",
        help="benchmark the SQL engines (native vs vector vs sqlite) on "
             "the gold workloads and gate the vector speedup",
    )
    engine.add_argument(
        "--workload", choices=("table5", "serve"), default="table5",
        help="query stream: table5 (all gold queries, steady-state per-"
             "query minimum) or serve (dev split streamed --repeat times) "
             "(default: table5)",
    )
    engine.add_argument(
        "--repeat", type=int, default=5, metavar="N",
        help="runs per query (table5) or stream repetitions (serve) "
             "(default: 5)",
    )
    engine.add_argument(
        "--out", default="benchmarks/BENCH_engine.json", metavar="PATH",
        help="report destination (default: benchmarks/BENCH_engine.json)",
    )
    engine.add_argument(
        "--assert-speedup", type=float, default=None, metavar="MIN",
        help="exit 1 unless the vector engine's overall p50 speedup over "
             "native >= MIN",
    )
    engine.add_argument(
        "--assert-identical", action="store_true",
        help="exit 1 unless vector results are byte-identical to native "
             "and sqlite agrees on every query",
    )

    explain = add_command(
        "explain",
        help="print the vector engine's costed plan tree for one SQL query",
    )
    explain.add_argument("sql", help="the SQL query to plan")
    return parser


def _config_for(args):
    import dataclasses

    from repro.experiments.config import full, quick

    config = {"quick": quick, "full": full}[args.preset]()
    if args.domain:
        config = dataclasses.replace(config, domains=tuple(args.domain))
    return config


def _resolve_domain_flags(args) -> int:
    """Register ``--adapter`` sources, then validate ``--domain`` names.

    Adapters register first so a just-loaded single-file domain is a valid
    ``--domain`` target in the same invocation.  Returns 0 on success or the
    usage exit code.
    """
    from repro import adapters
    from repro.errors import AdapterError

    for path in args.adapter or ():
        try:
            adapters.load_adapter_source(path)
        except AdapterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.domain:
        available = adapters.list_adapters()
        for name in args.domain:
            if name.lower() not in available:
                print(
                    f"unknown domain {name!r} (available: "
                    f"{', '.join(available)})",
                    file=sys.stderr,
                )
                return 2
        args.domain = [name.lower() for name in args.domain]
    return 0


def _build_suite(args):
    """One suite per invocation, wired to the requested runtime policy."""
    from repro.experiments.runner import Suite
    from repro.runtime import Runtime

    cache_dir = None if args.no_cache else args.cache_dir
    runtime = Runtime(workers=args.workers, cache_dir=cache_dir)
    return Suite.from_config(_config_for(args), runtime=runtime)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        if args.command == "trace":
            # The wrapper re-enters main() for the wrapped command; it never
            # builds a suite (or touches the shared flags) itself.
            return _trace(args)
        code = _resolve_domain_flags(args)
        if code:
            return code
        if args.command == "lint":
            # Lint never builds the suite: it constructs bare domains itself
            # and must not pay for (or trigger) the synthesis pipeline.
            return _lint(args)
        if args.command == "check":
            # Source checks touch no artifacts at all.
            return _check(args)
        if args.command == "chaos-bench":
            # Chaos-bench owns its runtimes (baseline vs chaos vs repair
            # caches must stay separate); it never touches the suite cache.
            return _chaos_bench(args)
        if args.command == "robustness-bench":
            # The matrix builds bare perturbed domains through its own
            # runtime (never the suite's synthesis pipeline).
            return _robustness_bench(args)
        if args.command == "diff-exec":
            # Gold splits execute on bare domains (no synthesis); the silver
            # split goes through a suite inside the handler.
            return _diff_exec(args)
        if args.command == "engine-bench":
            # Gold workloads run on bare domains — never the synthesis suite.
            return _engine_bench(args)
        if args.command == "explain":
            return _explain(args)
        suite = _build_suite(args)
        if args.command == "tables":
            code = _tables(suite, args.which)
        elif args.command == "figures":
            code = _figures(suite)
        elif args.command == "augment":
            code = _augment(suite, args)
        elif args.command == "stats":
            code = _stats(suite)
        elif args.command == "serve-bench":
            code = _serve_bench(suite, args)
        else:  # pragma: no cover - argparse enforces the choices
            return 2
        if args.timings:
            print(suite.runtime.report.render(), file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _tables(suite, which: list[str]) -> int:
    from repro.experiments import registry

    names = registry.available(kind="table")
    for number in which:
        if number not in names:
            print(f"unknown table {number!r} (choose 1-5)", file=sys.stderr)
            return 2
    # Prefetch every requested table's artifacts in one batch so independent
    # tasks (domains, corpus, Table-5 cells) fan across the workers.
    prefetch = [
        task for number in which for task in registry.required_tasks(number, suite.config)
    ]
    suite.ensure(prefetch)
    for number in which:
        print(registry.render(number, suite))
        print()
    return 0


def _figures(suite) -> int:
    from repro.experiments import registry

    if "sdss" not in suite.domain_names():
        print("figures requires the sdss domain (the paper's Figure 1/2 "
              "walk-throughs are SDSS-based)", file=sys.stderr)
        return 2
    suite.ensure(
        registry.required_tasks("figure1", suite.config)
        + registry.required_tasks("figure2", suite.config)
    )
    print(registry.render("figure1", suite))
    print()
    print(registry.render("figure2", suite))
    return 0


def _augment(suite, args) -> int:
    if not args.domain or len(args.domain) != 1:
        print("augment requires exactly one --domain", file=sys.stderr)
        return 2
    domain_name = args.domain[0]
    out, target, seed = args.out, args.target, args.seed
    if target is None and seed is None:
        # Default run: the suite's own Synth artifact (graph-built, cached).
        synth = suite.domain(domain_name).synth
    else:
        # Overrides map onto an explicit PipelineConfig over a bare domain.
        import random

        from repro import adapters
        from repro.llm.models import GPT3_PROFILE, make_model
        from repro.runtime import derive_seed
        from repro.synthesis import augment_domain

        if seed is None:
            seed = derive_seed(suite.config.seed, f"augment:{domain_name}")
        if target is None:
            target = suite.config.synth_targets.get(domain_name, 300)
        domain = adapters.get_adapter(domain_name).build(
            scale=suite.config.domain_scale
        )
        synth = augment_domain(
            domain,
            target_queries=target,
            seed=seed,
            model=make_model(GPT3_PROFILE, seed=seed),
            rng=random.Random(seed),
        )
    print(f"{domain_name}: {len(synth)} synthetic pairs "
          f"({synth.hardness_counts()})")
    if out:
        synth.to_json(out)
        print(f"written to {out}")
    return 0


def _lint(args) -> int:
    """Lint the gold queries and data of the requested domains.

    Builds the bare domains directly — linting must not trigger the
    (expensive) synthesis pipeline that ``suite.domain()`` runs.
    """
    from repro import adapters
    from repro.analysis import lint_domain
    from repro.analysis.diagnostics import gate_exit_code

    config = _config_for(args)
    names = args.domain or list(adapters.list_adapters())
    n_errors = n_warnings = 0
    for name in names:
        domain = adapters.get_adapter(name).build(scale=config.domain_scale)
        report = lint_domain(domain)
        print(report.render())
        n_errors += report.n_errors
        n_warnings += report.n_warnings
    return gate_exit_code(n_errors, n_warnings, strict=args.strict)


def _check(args) -> int:
    """Run the repo's own determinism/concurrency/hygiene source checks.

    Warnings gate too (``strict=True``): an invariant worth a warning is
    worth failing CI over — suppressions with justifications are the escape
    hatch, not severities.
    """
    from repro.analysis.diagnostics import gate_exit_code
    from repro.checks import ALL_RULES, render_json, render_terminal, run_checks

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:24s} {rule.severity.value:8s} {rule.description}")
        return 0
    select = [item.strip() for item in args.select.split(",")] if args.select else None
    try:
        report = run_checks(paths=args.paths or None, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_terminal(report))
    return gate_exit_code(report.n_errors, report.n_warnings, strict=True)


def _serve_bench(suite, args) -> int:
    """Warm-start the serving layer and replay dev questions through it."""
    from repro.serving import (
        FleetProfile,
        LoadProfile,
        ServerConfig,
        evaluate_gates,
        load_backends,
        render_report,
        run_serve_bench,
    )

    # --domain (already validated against the registry) narrows the serve
    # set; default is everything the suite's config names.
    domains = tuple(args.domain) if args.domain else suite.domain_names()

    bundle = load_backends(
        suite, domains=domains, system_name=args.system, regime=args.regime,
    )
    start = "warm (all artifacts cached)" if bundle.warm else "cold (training ran)"
    print(f"serving {args.system} [{args.regime}] on "
          f"{', '.join(domains)} — start was {start}", file=sys.stderr)

    questions = {
        name: [pair.question for pair in suite.dev_pairs(name)] for name in domains
    }
    # With a fleet, --qps drives the open-loop soak arm and the base arms
    # stay closed-loop; without one it paces the base arms (old behaviour).
    fleet = None
    base_qps = args.qps
    if args.replicas >= 2:
        base_qps = None
        fleet = FleetProfile(
            replicas=args.replicas, tenants=args.tenants,
            soak_qps=args.qps, soak_requests=args.soak_requests,
            quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        )
        print(f"fleet: {args.replicas} replica slots over "
              f"{', '.join(domains)} ({bundle.system_name} "
              f"[{bundle.regime}])", file=sys.stderr)
    profile = LoadProfile(
        concurrency=args.concurrency, repeat=args.repeat,
        qps=base_qps, seed=suite.config.seed, limit=args.limit,
    )
    config = ServerConfig(
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        execute=args.execute,
    )
    report = run_serve_bench(
        bundle.backends, questions, profile, config, fleet=fleet
    )
    failures = evaluate_gates(
        report,
        assert_speedup=args.assert_speedup,
        assert_p95_ms=args.assert_p95_ms,
        assert_p99_ms=args.assert_p99_ms,
        assert_fairness=args.assert_fairness,
        assert_fleet_gain=args.assert_fleet_gain,
        allow_rejections=args.allow_rejections,
    )
    return _finish_bench(report, render_report, failures, args.out)


def _finish_bench(report: dict, render, failures: list[str], out) -> int:
    """The one ending of every bench command: print the render, write the
    report to ``out``, print its WARN and FAIL lines, and exit 1 on any
    failure.

    Gates run before this: a downgraded gate (e.g. --assert-fleet-gain on
    a 1-cpu host) records its warning *in* the report, so the written
    artifact carries the note.
    """
    from repro.analysis.diagnostics import gate_exit_code
    from repro.obs.export import write_report

    print(render(report))
    if out:
        path = write_report(report, out)
        print(f"report written to {path}", file=sys.stderr)
    for warning in report.get("warnings", ()):
        print(f"WARN: {warning}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return gate_exit_code(len(failures))


def _trace(args) -> int:
    """``sciencebenchmark trace <command…>``: run a command traced.

    Installs a live tracer process-wide, re-enters :func:`main` with the
    wrapped command, then writes the Chrome ``trace_event`` JSON and the
    JSONL span log under ``--trace-dir`` and prints the flame summary to
    stderr.  The wrapped command's exit code is propagated.
    """
    import os

    from repro import obs
    from repro.obs import Tracer, flame_summary, write_chrome_trace, write_span_log

    rest = [token for token in args.rest if token != "--"]
    if not rest or rest[0] == "trace":
        print("usage: sciencebenchmark trace <command> [args...]", file=sys.stderr)
        return 2
    sub = rest[0]
    trace_path = os.path.join(args.trace_dir, f"trace-{sub}.json")
    span_log_path = os.path.join(args.trace_dir, f"trace-{sub}.spans.jsonl")

    tracer = Tracer()
    # Announce the artifact path up front so reports written by the wrapped
    # command (serve-bench, chaos-bench) can embed it.
    previous_path = obs.set_trace_path(trace_path)
    previous_tracer = obs.set_tracer(tracer)
    try:
        with tracer.span(f"command:{sub}", argv=" ".join(rest)) as span:
            code = main(rest)
            span.set_attr("exit_code", code)
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_trace_path(previous_path)

    spans = tracer.finished()
    write_chrome_trace(spans, trace_path)
    write_span_log(spans, span_log_path)
    print(flame_summary(spans), file=sys.stderr)
    print(f"trace: {len(spans)} spans -> {trace_path} (span log: "
          f"{span_log_path})", file=sys.stderr)
    return code


def _chaos_bench(args) -> int:
    """Run the resilience benchmark and enforce its gates."""
    from repro.resilience.chaosbench import (
        evaluate_chaos_gates,
        render_report,
        run_chaos_bench,
    )

    if args.domain and len(args.domain) > 1:
        print("chaos-bench accepts a single --domain", file=sys.stderr)
        return 2
    domain = args.domain[0] if args.domain else "cordis"
    report = run_chaos_bench(
        schedule=args.schedule,
        domain=domain,
        skip_tables=args.skip_tables,
        workers=max(2, args.workers),
    )
    failures = evaluate_chaos_gates(
        report,
        assert_identical=args.assert_identical,
        max_dead_letter=args.max_dead_letter,
    )
    return _finish_bench(report, render_report, failures, args.out)


def _robustness_bench(args) -> int:
    """Run the perturbation scenario matrix and enforce its gates."""
    from repro import adapters
    from repro.perturb import FAMILY_NAMES, SEVERITIES
    from repro.perturb.bench import (
        evaluate_robustness_gates,
        render_report,
        run_robustness_bench,
    )

    domains = tuple(args.domain) if args.domain else adapters.list_adapters()
    families = tuple(dict.fromkeys(args.family)) if args.family else FAMILY_NAMES
    severities = (
        tuple(dict.fromkeys(args.severity)) if args.severity else SEVERITIES
    )
    systems = tuple(dict.fromkeys(args.system)) if args.system else ("valuenet",)
    report, run_report = run_robustness_bench(
        domains=domains,
        systems=systems,
        families=families,
        severities=severities,
        seed=args.seed,
        scale=args.scale,
        dev_limit=args.dev_limit or None,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fault_schedule=args.fault_schedule,
    )
    if args.timings:
        print(run_report.render(), file=sys.stderr)
    failures = evaluate_robustness_gates(
        report,
        max_degradation=args.assert_max_degradation,
        assert_invariant=args.assert_invariant,
    )
    return _finish_bench(report, render_report, failures, args.out)


def _diff_exec(args) -> int:
    """Differentially execute query sets on the engine and a backend.

    Gold splits (seed+dev) run against bare adapter-built domains — no
    synthesis.  Asking for the silver split builds the domains through the
    suite so the Synth artifact is materialised (and cached).  Exit 1 when
    any query diverges, 2 on usage errors, 0 on full agreement.
    """
    from repro import adapters
    from repro.engine.diffexec import (
        ALL_SPLITS,
        GOLD_SPLITS,
        run_diff_exec,
        run_three_way,
        write_reports,
    )

    splits = {"gold": GOLD_SPLITS, "silver": ("synth",), "all": ALL_SPLITS}[
        args.splits
    ]
    names = list(args.domain or adapters.list_adapters())
    suite = _build_suite(args) if "synth" in splits else None
    config = suite.config if suite is not None else _config_for(args)

    reports = []
    for name in names:
        if suite is not None:
            domain = suite.domain(name)
        else:
            domain = adapters.get_adapter(name).build(scale=config.domain_scale)
        if args.backend == "all":
            new_reports = run_three_way(domain, splits=splits)
        else:
            new_reports = [
                run_diff_exec(domain, backend=args.backend, splits=splits)
            ]
        for report in new_reports:
            print(report.render())
        reports.extend(new_reports)
    if args.out:
        path = write_reports(reports, args.out)
        print(f"report written to {path}", file=sys.stderr)
    if suite is not None and args.timings:
        print(suite.runtime.report.render(), file=sys.stderr)
    return 0 if all(report.agreed for report in reports) else 1


def _engine_bench(args) -> int:
    """Benchmark the execution engines on bare gold domains."""
    from repro import adapters
    from repro.engine.bench import (
        evaluate_engine_gates,
        render_report,
        run_engine_bench,
    )

    config = _config_for(args)
    names = list(args.domain or adapters.list_adapters())
    domains = {
        name: adapters.get_adapter(name).build(scale=config.domain_scale)
        for name in names
    }
    report = run_engine_bench(
        domains, workload=args.workload, repeat=args.repeat
    )
    failures = evaluate_engine_gates(
        report,
        assert_speedup=args.assert_speedup,
        assert_identical=args.assert_identical,
    )
    return _finish_bench(report, render_report, failures, args.out)


def _explain(args) -> int:
    """Plan one query with the vector engine and print the costed tree."""
    from repro import adapters
    from repro.engine.vector import VectorEngine
    from repro.sql import parse

    if not args.domain or len(args.domain) != 1:
        print("explain requires exactly one --domain", file=sys.stderr)
        return 2
    config = _config_for(args)
    domain = adapters.get_adapter(args.domain[0]).build(
        scale=config.domain_scale
    )
    engine = VectorEngine(domain.database)
    print(engine.explain(parse(args.sql), args.sql))
    return 0


def _stats(suite) -> int:
    from repro.experiments.tasks import CORPUS_TASK, domain_task

    suite.ensure(
        [CORPUS_TASK, *(domain_task(name) for name in suite.domain_names())]
    )
    for name, domain in suite.domains().items():
        print(f"{name}:")
        for split in (domain.seed, domain.dev, domain.synth):
            if split is None:
                continue
            print(f"  {split.name:16s} {len(split):5d} {split.hardness_counts()}")
    corpus = suite.corpus
    print("minispider:")
    for split in (corpus.train, corpus.dev):
        print(f"  {split.name:16s} {len(split):5d} {split.hardness_counts()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
