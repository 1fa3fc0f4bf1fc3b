"""Load generator: replay dev-split questions against a serving target.

``serve-bench`` runs the same request stream through comparison arms:

* **unbatched** — ``max_batch=1`` and the result cache disabled: a naive
  one-question-at-a-time service, the baseline.
* **batched** — the full single-server stack: micro-batch coalescing plus
  the normalized-question result cache and its single-flight table.
* **fleet** (``--replicas N``) — the same stream through a
  :class:`~repro.fleet.router.FleetRouter` over N replicas, each key
  cached and coalesced by the one replica that owns it.
* **soak** (``--qps``) — an open-loop sustained arm against the fleet:
  multi-tenant pacing at a fixed offered rate, optionally under per-tenant
  token-bucket quotas, gated on p99 and per-tenant fairness.

Every arm starts with cold link memos and replays an identical stream —
each dev question repeated ``repeat`` times, shuffled with a fixed seed —
so arm-to-arm deltas isolate exactly what each serving layer adds.  Each
arm records its *achieved* QPS (completions over wall time, distinct from
the offered rate) and a queue-depth time series sampled while it ran.  The
fleet arm is additionally checked for byte-identical answers against the
batched arm (``fleet_identity``): same stream, same seed, same SQL.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, replace

from repro.obs import get_tracer
from repro.obs.export import bench_envelope, percentile
from repro.resilience.clock import SYSTEM_CLOCK
from repro.serving.metrics import STAGES, LatencyHistogram
from repro.serving.server import InferenceServer, ServerConfig


@dataclass(frozen=True)
class LoadProfile:
    """Shape of one replayed load."""

    concurrency: int = 16
    #: Times each dev question appears in the stream.
    repeat: int = 4
    #: Open-loop pacing in requests/second (None = closed loop).
    qps: float | None = None
    seed: int = 2023
    #: Cap on total requests after repeat+shuffle (None = no cap).
    limit: int | None = None


@dataclass(frozen=True)
class FleetProfile:
    """Shape of the fleet and soak arms (``serve-bench --replicas``)."""

    #: Replica slots behind the router (the fleet arm needs >= 2); each
    #: decodes in its own forked worker, or on its server's thread where
    #: ``fork`` is unavailable.
    replicas: int = 2
    #: Virtual nodes per slot on each domain's hash ring.
    vnodes: int = 32
    #: Tenants the soak arm spreads requests over (round-robin).
    tenants: int = 4
    #: Offered rate of the open-loop soak arm (None = no soak arm).
    soak_qps: float | None = None
    #: Cap on soak-arm requests (None = the full stream).
    soak_requests: int | None = None
    #: Per-tenant token-bucket refill rate (None = no quotas in the soak).
    quota_rate: float | None = None
    #: Per-tenant token-bucket burst size (None = same as the rate).
    quota_burst: float | None = None


def build_stream(
    questions_by_domain: dict[str, list[str]], profile: LoadProfile
) -> list[tuple[str, str]]:
    """The deterministic (domain, question) request stream for a profile."""
    import random

    stream = [
        (domain, question)
        for domain in sorted(questions_by_domain)
        for question in questions_by_domain[domain]
        for _ in range(profile.repeat)
    ]
    random.Random(profile.seed).shuffle(stream)
    if profile.limit is not None:
        stream = stream[: profile.limit]
    return stream


async def replay(
    target,
    stream: list[tuple[str, str]],
    profile: LoadProfile,
    *,
    qps: float | None = None,
    tenants: int = 1,
) -> list:
    """Drive the stream through a started target; returns all ServeResults.

    ``target`` is anything with ``async submit(question, domain)`` — an
    :class:`InferenceServer` or a :class:`~repro.fleet.router.FleetRouter`.
    With ``tenants > 1`` requests round-robin over tenants ``t0..tN-1``
    (fleet targets only: the single server has no tenant concept).
    """
    results = []
    qps = qps if qps is not None else profile.qps

    def submit(index: int, domain: str, question: str):
        if tenants > 1:
            return target.submit(question, domain, tenant=f"t{index % tenants}")
        return target.submit(question, domain)

    if qps:
        interval = 1.0 / qps

        async def paced(index: int, domain: str, question: str):
            await asyncio.sleep(index * interval)
            results.append(await submit(index, domain, question))

        await asyncio.gather(
            *(
                paced(index, domain, question)
                for index, (domain, question) in enumerate(stream)
            )
        )
    else:
        iterator = iter(enumerate(stream))

        async def worker() -> None:
            for index, (domain, question) in iterator:
                results.append(await submit(index, domain, question))

        await asyncio.gather(*(worker() for _ in range(profile.concurrency)))
    return results


def _latency(samples_ms: list[float]) -> dict:
    """Exact sample percentiles (no histogram binning error)."""
    return {
        "mean_ms": sum(samples_ms) / len(samples_ms) if samples_ms else 0.0,
        "p50_ms": percentile(samples_ms, 0.50),
        "p95_ms": percentile(samples_ms, 0.95),
        "p99_ms": percentile(samples_ms, 0.99),
        "max_ms": percentile(samples_ms, 1.0),
    }


def _reset_link_memos(backends: dict) -> None:
    """Cold-start every arm identically (the link memo otherwise carries
    warmth from the previous arm into the next one)."""
    for backend in backends.values():
        cache = getattr(backend.system, "_link_cache", None)
        if cache is not None:
            cache.clear()


async def _sample_queue_depth(
    depth_fn,
    stop: asyncio.Event,
    interval_s: float = 0.02,
    max_samples: int = 2000,
) -> dict:
    """Sample ``depth_fn()`` until ``stop`` is set; bounded memory.

    When the series outgrows ``max_samples`` it is decimated (every other
    sample dropped) and the interval doubled, so long soaks keep a coarse
    full-run series instead of truncating the tail.
    """
    samples: list[int] = []
    interval = interval_s
    while not stop.is_set():
        samples.append(depth_fn())
        if len(samples) > max_samples:
            del samples[1::2]
            interval *= 2.0
        try:
            await asyncio.wait_for(stop.wait(), interval)
        except asyncio.TimeoutError:
            pass
    return {"interval_ms": interval * 1000.0, "samples": samples}


def _rejection_kinds(results: list) -> dict:
    """Split rejections into quota (intended) vs admission (overload)."""
    kinds = {"quota": 0, "admission": 0}
    for result in results:
        if result.status == "rejected":
            kind = result.error.kind if result.error else "admission"
            kinds["quota" if kind == "quota" else "admission"] += 1
    return kinds


def _summarize(
    results: list, wall_s: float, offered_qps: float | None = None
) -> dict:
    """The per-arm accounting every arm shares."""
    statuses: dict[str, int] = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    answered = [r for r in results if r.ok]
    totals_ms = [r.timings_ms["total"] for r in answered if "total" in r.timings_ms]
    queues_ms = [r.timings_ms["queue"] for r in answered if "queue" in r.timings_ms]
    answers: dict[str, str] = {}
    for result in answered:
        if result.sql is not None:
            answers.setdefault(f"{result.domain}: {result.question}", result.sql)
    return {
        "requests": len(results),
        "answered": len(answered),
        "statuses": statuses,
        "rejections": _rejection_kinds(results),
        "wall_s": wall_s,
        #: Answers per second — the headline comparison number.
        "throughput_qps": len(answered) / wall_s if wall_s > 0 else 0.0,
        #: Completions per second, every outcome counted (what the arm
        #: actually sustained, vs the offered open-loop rate).
        "achieved_qps": len(results) / wall_s if wall_s > 0 else 0.0,
        "offered_qps": offered_qps,
        "latency": _latency(totals_ms),
        #: Exact queue-stage percentiles (admission -> dequeue wait).
        "queue_latency": _latency(queues_ms),
        # (domain, question) -> SQL; popped before the report is written,
        # consumed by the fleet identity check.
        "answers": answers,
    }


def _tenant_stats(results: list) -> dict:
    """Per-tenant accounting + fairness spreads for a multi-tenant arm."""
    by_tenant: dict[str, dict] = {}
    for result in results:
        tenant = result.tenant or "default"
        bucket = by_tenant.setdefault(
            tenant, {"requests": 0, "answered": 0, "rejected": 0, "samples": []}
        )
        bucket["requests"] += 1
        if result.ok:
            bucket["answered"] += 1
            if "total" in result.timings_ms:
                bucket["samples"].append(result.timings_ms["total"])
        elif result.status == "rejected":
            bucket["rejected"] += 1
    per_tenant = {
        tenant: {
            "requests": bucket["requests"],
            "answered": bucket["answered"],
            "rejected": bucket["rejected"],
            "latency": _latency(bucket["samples"]),
        }
        for tenant, bucket in sorted(by_tenant.items())
    }
    p95s = [
        entry["latency"]["p95_ms"]
        for entry in per_tenant.values()
        if entry["answered"]
    ]
    answered = [entry["answered"] for entry in per_tenant.values()]
    fairness = {
        #: Worst/best tenant p95 ratio (1.0 = perfectly fair).
        "p95_spread": (max(p95s) / min(p95s)) if p95s and min(p95s) > 0 else 1.0,
        #: Most/least answered-requests ratio across tenants.
        "answered_spread": (
            max(answered) / min(answered) if answered and min(answered) > 0 else 1.0
        ),
    }
    return {"per_tenant": per_tenant, "fairness": fairness}


async def _run_arm(
    label: str,
    backends: dict,
    build,
    details,
    stream: list[tuple[str, str]],
    profile: LoadProfile,
    *,
    qps: float | None = None,
    tenants: int = 1,
) -> dict:
    """Replay ``stream`` through the target ``build()`` makes.

    The link memos are cleared before ``build`` runs, since a fleet
    deep-copies the systems it serves.  ``details(target)`` adds the
    target's own counters, latencies and breakers to the arm.
    """
    _reset_link_memos(backends)
    target = build()
    qps = qps if qps is not None else profile.qps
    with get_tracer().span(f"serve-bench.{label}", requests=len(stream)):
        async with target:
            stop = asyncio.Event()
            sampler = asyncio.ensure_future(
                _sample_queue_depth(target.pending, stop)
            )
            started = SYSTEM_CLOCK.now()
            results = await replay(
                target, stream, profile, qps=qps, tenants=tenants
            )
            wall_s = SYSTEM_CLOCK.now() - started
            stop.set()
            queue_depth = await sampler

    arm = _summarize(results, wall_s, offered_qps=qps)
    arm["queue_depth"] = queue_depth
    arm.update(details(target))
    if tenants > 1:
        arm["tenants"] = _tenant_stats(results)
    return arm


def _server_details(server) -> dict:
    stats = server.stats()
    return {
        "counters": stats.counters,
        "cache": stats.cache,
        "stage_latency_ms": stats.latency_ms,
        "breakers": server.breaker_states(),
        # The arm's full unified-registry snapshot (serving.* instruments).
        "registry": server.metrics.registry.snapshot(),
    }


def _fleet_details(router) -> dict:
    """The router's ``fleet.*`` counters plus every replica's serving
    counters summed (cache hits and single-flight happen on the replicas),
    and every replica's stage histograms merged."""
    counters = dict(router.counters)
    for replica in router.replicas.values():
        for name, value in replica.server.metrics.counters.items():
            counters[name] = counters.get(name, 0) + value
    stage_latency = {}
    for stage in STAGES:
        combined = LatencyHistogram()
        for replica in router.replicas.values():
            combined.merge(replica.server.metrics.histograms[stage])
        stage_latency[stage] = combined.summary()
    fleet_stats = router.stats()
    return {
        "replicas": len(router.replicas),
        # What ran, not what was asked for: without ``fork`` the replicas
        # decode on their servers' threads and own no worker pool.
        "isolation": (
            "process"
            if any(r.pool is not None for r in router.replicas.values())
            else "thread"
        ),
        "counters": counters,
        "stage_latency_ms": stage_latency,
        # Per-replica circuit breakers (uniform key for the gates).
        "breakers": fleet_stats["breakers"],
        "fleet": fleet_stats,
        # The merged fleet view: router fleet.* + replica.<slot>.serving.*.
        "registry": router.metrics_view(),
    }


def _compare_answers(reference: dict, candidate: dict) -> dict:
    """Byte-identity of two arms' answer maps (the determinism contract)."""
    common = sorted(set(reference) & set(candidate))
    divergences = [
        {
            "question": key,
            "batched_sql": reference[key],
            "fleet_sql": candidate[key],
        }
        for key in common
        if reference[key] != candidate[key]
    ]
    return {
        "identical": not divergences,
        "compared": len(common),
        "divergences": divergences[:5],
    }


def run_serve_bench(
    backends: dict,
    questions_by_domain: dict[str, list[str]],
    profile: LoadProfile | None = None,
    config: ServerConfig | None = None,
    fleet: FleetProfile | None = None,
) -> dict:
    """Run the benchmark arms and return the comparison report.

    ``fleet`` adds the fleet arm (when ``fleet.replicas >= 2``) and, when
    ``fleet.soak_qps`` is set, the open-loop multi-tenant soak arm.
    """
    profile = profile or LoadProfile()
    config = config or ServerConfig()
    stream = build_stream(questions_by_domain, profile)
    unique = len({(domain, question) for domain, question in stream})

    def run_server(label: str, arm_config: ServerConfig) -> dict:
        build = lambda: InferenceServer(backends, arm_config)
        return asyncio.run(
            _run_arm(label, backends, build, _server_details, stream, profile)
        )

    def run_fleet(label: str, arm_stream, qps=None, tenants=1, quotas=None) -> dict:
        from repro.fleet import FleetConfig, build_fleet

        fleet_config = FleetConfig(vnodes=fleet.vnodes, isolation="process")
        build = lambda: build_fleet(
            backends, fleet.replicas, server_config=config,
            config=fleet_config, quotas=quotas,
        )
        return asyncio.run(
            _run_arm(
                label, backends, build, _fleet_details, arm_stream, profile,
                qps=qps, tenants=tenants,
            )
        )

    unbatched = run_server(
        "unbatched", replace(config, max_batch=1, cache_capacity=0)
    )
    batched = run_server("batched", config)
    arms = {"unbatched": unbatched, "batched": batched}

    unbatched_qps = unbatched["throughput_qps"]
    # ``host.cpus`` is the capacity context for the fleet comparison:
    # replica parallelism (process isolation) cannot exceed the host's core
    # count, so a single-core host pins fleet_speedup near 1.0 by Little's
    # law.
    report = {
        **bench_envelope("serving", seed=profile.seed, repeat=profile.repeat),
        "profile": asdict(profile),
        "fleet_profile": asdict(fleet) if fleet else None,
        "config": asdict(config),
        "stream": {
            "requests": len(stream),
            "unique_questions": unique,
            "domains": sorted(questions_by_domain),
        },
        "speedup": batched["throughput_qps"] / unbatched_qps if unbatched_qps else 0.0,
    }

    if fleet is not None and fleet.replicas >= 2:
        fleet_arm = run_fleet("fleet", stream)
        arms["fleet"] = fleet_arm
        batched_qps = batched["throughput_qps"]
        report["fleet_speedup"] = (
            fleet_arm["throughput_qps"] / batched_qps if batched_qps else 0.0
        )
        batched_queue_p95 = batched["queue_latency"]["p95_ms"]
        report["queue_p95_ratio"] = (
            fleet_arm["queue_latency"]["p95_ms"] / batched_queue_p95
            if batched_queue_p95
            else 0.0
        )
        report["fleet_identity"] = _compare_answers(
            batched["answers"], fleet_arm["answers"]
        )
        if fleet.soak_qps:
            quotas = None
            if fleet.quota_rate:
                from repro.fleet import QuotaPolicy, TenantQuotas

                quotas = TenantQuotas(
                    default=QuotaPolicy(
                        rate_per_s=fleet.quota_rate,
                        burst=fleet.quota_burst or fleet.quota_rate,
                    )
                )
            arms["soak"] = run_fleet(
                "soak",
                stream[: fleet.soak_requests] if fleet.soak_requests else stream,
                qps=fleet.soak_qps,
                tenants=max(1, fleet.tenants),
                quotas=quotas,
            )

    # The answer maps fed the identity check; they don't belong in the report.
    for arm in arms.values():
        arm.pop("answers", None)
    report["arms"] = arms
    return report


def evaluate_gates(
    report: dict,
    *,
    assert_speedup: float | None = None,
    assert_p95_ms: float | None = None,
    assert_p99_ms: float | None = None,
    assert_fairness: float | None = None,
    assert_fleet_gain: bool = False,
    allow_rejections: bool = False,
) -> list[str]:
    """Every gate violation in a report (empty = the run passes).

    Robustness outcomes always gate: ``failed``/``timeout`` anywhere, and
    admission rejections unless ``allow_rejections``.  Quota rejections
    never gate — a token bucket refusing an over-limit tenant is the quota
    system working, not the serving tier failing.  A fleet arm that
    diverges from the batched arm's answers always gates (the determinism
    contract is not optional).
    """
    failures: list[str] = []
    for name, arm in report["arms"].items():
        statuses = arm.get("statuses", {})
        for status in ("failed", "timeout"):
            if statuses.get(status):
                failures.append(
                    f"arm {name!r}: {statuses[status]} {status} request(s)"
                )
        rejections = arm.get("rejections", {})
        if rejections.get("admission") and not allow_rejections:
            failures.append(
                f"arm {name!r}: {rejections['admission']} admission "
                "rejection(s) (pass --allow-rejections to tolerate overload)"
            )
        open_breakers = [
            key
            for key, snapshot in (arm.get("breakers") or {}).items()
            if snapshot.get("state") == "open"
        ]
        if open_breakers:
            failures.append(
                f"arm {name!r}: circuit breaker(s) left open: "
                + ", ".join(sorted(open_breakers))
            )

    if assert_speedup is not None and report["speedup"] < assert_speedup:
        failures.append(
            f"speedup {report['speedup']:.2f}x below required "
            f"{assert_speedup:.2f}x"
        )
    batched_latency = report["arms"]["batched"]["latency"]
    if assert_p95_ms is not None and batched_latency["p95_ms"] > assert_p95_ms:
        failures.append(
            f"batched p95 {batched_latency['p95_ms']:.2f} ms above required "
            f"{assert_p95_ms:.2f} ms"
        )
    if assert_p99_ms is not None and batched_latency["p99_ms"] > assert_p99_ms:
        failures.append(
            f"batched p99 {batched_latency['p99_ms']:.2f} ms above required "
            f"{assert_p99_ms:.2f} ms"
        )

    identity = report.get("fleet_identity")
    if identity is not None and not identity["identical"]:
        failures.append(
            f"fleet answers diverge from the batched arm on "
            f"{len(identity['divergences'])}+ question(s)"
        )
    if assert_fleet_gain:
        speedup = report.get("fleet_speedup")
        ratio = report.get("queue_p95_ratio")
        if speedup is None or ratio is None:
            failures.append("--assert-fleet-gain needs a fleet arm (--replicas >= 2)")
        elif not (speedup >= 2.0 or ratio <= 0.5):
            message = (
                f"fleet gain not met: speedup {speedup:.2f}x < 2.0x and "
                f"queue p95 ratio {ratio:.2f} > 0.5"
            )
            # On a single-CPU host process-isolated replicas cannot run in
            # parallel, so the gate degrades to a recorded warning (noted in
            # the report) instead of a hard failure.
            if report.get("host", {}).get("cpus") == 1:
                report.setdefault("warnings", []).append(
                    f"--assert-fleet-gain skipped on a 1-cpu host: {message}"
                )
            else:
                failures.append(message)
    if assert_fairness is not None:
        soak = report["arms"].get("soak") or report["arms"].get("fleet") or {}
        fairness = (soak.get("tenants") or {}).get("fairness")
        if fairness is None:
            failures.append("--assert-fairness needs a multi-tenant soak arm")
        elif fairness["p95_spread"] > assert_fairness:
            failures.append(
                f"tenant p95 spread {fairness['p95_spread']:.2f}x above "
                f"required {assert_fairness:.2f}x"
            )
    return failures


def render_report(report: dict) -> str:
    """A short human-readable summary of one serve-bench report."""
    lines = [
        "serve-bench: {requests} requests over {domains} "
        "({unique} unique questions)".format(
            requests=report["stream"]["requests"],
            domains=", ".join(report["stream"]["domains"]),
            unique=report["stream"]["unique_questions"],
        )
    ]
    for arm in ("unbatched", "batched", "fleet", "soak"):
        data = report["arms"].get(arm)
        if data is None:
            continue
        latency = data["latency"]
        counters = data["counters"]
        extras = (
            f"cache_hits {counters['cache_hits']}   "
            f"single_flight {counters['single_flight']}   "
            f"coalesced {counters['coalesced']}"
        )
        lines.append(
            f"  {arm:>9}: {data['throughput_qps']:8.1f} req/s   "
            f"p50 {latency['p50_ms']:7.2f} ms   "
            f"p95 {latency['p95_ms']:7.2f} ms   "
            f"p99 {latency['p99_ms']:7.2f} ms   " + extras
        )
    lines.append(f"  speedup (batched / unbatched): {report['speedup']:.2f}x")
    if "fleet_speedup" in report:
        identity = report.get("fleet_identity") or {}
        lines.append(
            f"  fleet   (fleet / batched):     {report['fleet_speedup']:.2f}x   "
            f"queue p95 ratio {report['queue_p95_ratio']:.2f}   "
            f"answers {'identical' if identity.get('identical') else 'DIVERGED'}"
        )
    soak = report["arms"].get("soak")
    if soak:
        line = (
            f"  soak: offered {soak['offered_qps']:.1f} req/s   "
            f"achieved {soak['achieved_qps']:.1f} req/s   "
            f"rejected quota={soak['rejections']['quota']} "
            f"admission={soak['rejections']['admission']}"
        )
        fairness = (soak.get("tenants") or {}).get("fairness")
        if fairness:
            line += f"   tenant p95 spread {fairness['p95_spread']:.2f}x"
        lines.append(line)
    return "\n".join(lines)
