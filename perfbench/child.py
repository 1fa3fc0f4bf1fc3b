"""One measured phase of a workload, run in a fresh interpreter.

Invoked by ``perfbench/run.py`` as::

    python3 -m perfbench.child <workload>.<phase> <params.json> <result.json>

with ``src`` on ``PYTHONPATH``.  Every phase reads its parameters from the
params file, drives the program through its public API and writes a JSON
result, including ``time.monotonic()`` stamps the parent turns into
durations (the parent stamps the spawn, so a phase's time includes
interpreter start and imports).  Nothing here sets ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import random
import sys
import time

#: Runtime workers of every graph run, except the traced ``reproduce``
#: run's single-worker jobs (one process sees every call).
WORKERS = 2
#: Domains of the ``reproduce`` suite.  Restricting the quick preset to one
#: domain keeps a cold ``tables 1-5`` near 30 s on two cores (all three
#: take about 100 s), so a run fits the benchmark's time budget.
REPRODUCE_DOMAINS = ("cordis",)
#: Domains ``serve`` serves.
DOMAINS = ("cordis", "sdss", "oncomx")
#: The served system and training regime.
SERVE_SYSTEM = ("valuenet", "both")
#: Table 5 cells re-derived per question by the ``reproduce`` check.
CHECK_CELLS = 3


def now() -> float:
    return time.monotonic()


def _config(domains):
    import dataclasses

    from repro.experiments.config import quick

    return dataclasses.replace(quick(), domains=tuple(domains))


def _suite(domains, cache: str, workers: int = WORKERS):
    from repro.experiments.runner import Suite
    from repro.runtime import Runtime

    return Suite.from_config(
        _config(domains), runtime=Runtime(workers=workers, cache_dir=cache)
    )


def _records(suite) -> list[list]:
    return [[r.name, r.status, r.seconds] for r in suite.runtime.report.records]


def _traced(params):
    """A ``tracing.SpanLog`` wrapped around every layer, or None."""
    if not params.get("trace"):
        return None
    from perfbench import tracing

    log = tracing.SpanLog()
    tracing.install(log)
    return log


def _root(log):
    """The root span a traced phase measures in (nothing when untraced)."""
    return log.root() if log is not None else contextlib.nullcontext()


def _trace_result(log, params) -> dict:
    """Per-layer metrics of a traced phase, after its spans are written.

    ``attributed_s`` is the self time of every layer, which leaves out the
    root span's own time: the parent measures coverage as its share of the
    phase's end-to-end window.
    """
    if log is None:
        return {}
    from perfbench import tracing

    log.unwrap_all()
    layers = tracing.layer_metrics(log)
    return {
        "layers": layers,
        "attributed_s": sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS),
        "spans": len(log.spans),
        "logged": log.write(params["trace_out"]),
    }


# -- reproduce -------------------------------------------------------------------


def reproduce_setup(params: dict) -> dict:
    """Imports plus the suite's task-graph build."""
    _suite(REPRODUCE_DOMAINS, params["cache"])
    return {"t_done": now()}


def _render_all(suite) -> dict[str, str]:
    """Every table's text, after one prefetch of all their tasks (as the
    ``tables`` command does)."""
    from repro.experiments import registry

    tables = registry.available(kind="table")
    prefetch = [t for n in tables for t in registry.required_tasks(n, suite.config)]
    suite.ensure(prefetch)
    return {n: registry.render(n, suite) for n in tables}


def reproduce_tables(params: dict) -> dict:
    """``tables 1 2 3 4 5`` over ``params["cache"]`` (cold when it is empty)."""
    log = _traced(params)
    with _root(log):
        suite = _suite(REPRODUCE_DOMAINS, params["cache"], params["workers"])
        t_setup = now()
        text = _render_all(suite)
        t_done = now()
    trace = _trace_result(log, params)
    with open(params["text_out"], "w", encoding="utf-8") as handle:
        json.dump(text, handle)
    result = {
        "t_setup": t_setup,
        "t_done": t_done,
        "records": _records(suite),
        "synth": _synth_rate(suite, ("domain:", "synth-spider:")),
        **trace,
    }
    if params.get("check_cells"):
        result["cells"] = _check_table5(suite, params["check_cells"])
    return result


def _check_table5(suite, cells: list) -> list[dict]:
    """Re-derive Table 5 cells per question, in this process.

    Each cell's trained system comes from the cache; its dev questions go
    through per-question ``predict`` and a fresh ``ExecutionAccuracy``,
    which must reproduce the cell the graph evaluated with ``predict_all``.
    """
    from repro.metrics.execution import ExecutionAccuracy

    checked = []
    for system_name, target, regime in cells:
        domain = None if target == "spider" else target
        system = suite.train_regime(system_name, domain, regime)
        cell = suite.eval_cell(system_name, domain, regime)
        accuracy = ExecutionAccuracy()
        for pair in suite.dev_pairs(domain):
            predicted = system.predict(pair.question, pair.db_id)
            if domain is None:
                accuracy.add(suite.corpus.databases[pair.db_id], pair.sql, predicted)
            else:
                hosted = suite.domain(domain)
                accuracy.add(hosted.database, pair.sql, predicted, enhanced=hosted.enhanced)
        checked.append({
            "cell": [system_name, target, regime],
            "graph": [cell.accuracy, cell.n_eval, cell.triage],
            "rederived": [accuracy.accuracy, accuracy.total, accuracy.triage],
        })
    return checked


# -- serve -----------------------------------------------------------------------


def _serving_setup(cache: str):
    """Imports, in-process training of the served systems, and the server.

    ``cache`` holds the prepared domains and corpus (``serve.prepare``), so
    what remains to compute is the training itself.
    """
    from repro.serving.loader import load_backends
    from repro.serving.server import InferenceServer, ServerConfig

    suite = _suite(DOMAINS, cache)
    system_name, regime = SERVE_SYSTEM
    bundle = load_backends(suite, DOMAINS, system_name=system_name, regime=regime)
    server = InferenceServer(bundle.backends, ServerConfig(execute=True))
    return suite, bundle, server


def _synth_rate(suite, prefixes=("domain:",)) -> list[float]:
    """``[Synth pairs, task seconds]`` of the augmentation tasks this
    process computed (domain builds and Synth Spider databases)."""
    pairs = seconds = 0.0
    for record in suite.runtime.report.records:
        if record.status == "computed" and record.name.startswith(prefixes):
            artifact = suite.artifact(record.name)
            pairs += len(getattr(artifact, "synth", artifact))
            seconds += record.seconds
    return [pairs, seconds]


def _record_generation(folder: str) -> None:
    """Have every ``AugmentationPipeline.run`` write its ``GenerationStats``
    counts (and dead letters) to ``folder/<domain>.json``.

    The runtime's pool workers fork from this process after the patch, so
    domain builds running there report too; a build that does not report
    fails the parent's check rather than passing it.
    """
    import os

    from repro.synthesis import AugmentationPipeline

    original = AugmentationPipeline.run

    def run(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        stats = report.generation
        counts = [stats.candidates, stats.static_rejected, stats.executed,
                  stats.runtime_rejected, stats.accepted, report.n_dead_lettered]
        with open(os.path.join(folder, f"{self.domain.name}.json"), "w") as handle:
            json.dump(counts, handle)
        return report

    AugmentationPipeline.run = run


def serve_prepare(params: dict) -> dict:
    """Build the served domains (with their Synth splits) and the corpus
    into ``params["cache"]``: the inputs every set-up then trains from.

    ``synth_sha256`` digests the three Synth splits, which the augmentation
    pipeline made at the quick-preset targets and the suite's derived seeds;
    ``generation`` holds each domain's generation counts.
    """
    import hashlib
    import os

    from repro.experiments.tasks import CORPUS_TASK, domain_task

    folder = params["generation_out"]
    os.makedirs(folder, exist_ok=True)
    _record_generation(folder)
    suite = _suite(DOMAINS, params["cache"])
    suite.ensure([domain_task(name) for name in DOMAINS] + [CORPUS_TASK])
    t_done = now()
    digest = hashlib.sha256()
    generation = {}
    for name in DOMAINS:
        for pair in suite.domain(name).synth.pairs:
            digest.update(f"{name}\t{pair.question}\t{pair.sql}\n".encode())
        path = os.path.join(folder, f"{name}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                generation[name] = json.load(handle)
    return {"t_done": t_done, "synth": _synth_rate(suite), "synth_sha256": digest.hexdigest(),
            "generation": generation}


def serve_start(params: dict) -> dict:
    """Imports, the served systems and a started (then stopped) server.

    Over a prepared cache this trains the systems (a cold set-up); over the
    cache a stream phase left behind it loads them (a warm restart).
    """
    import asyncio

    suite, bundle, server = _serving_setup(params["cache"])

    async def start_stop() -> float:
        await server.start()
        started = now()
        await server.stop()
        return started

    t_done = asyncio.run(start_stop())
    return {"t_done": t_done, "warm": bundle.warm, "computed": suite.runtime.report.computed}


def serve_stream(params: dict) -> dict:
    """Set up, then replay an open-loop stream at a fixed rate.

    Request ``i`` is due ``i / rate`` seconds after the first; its latency
    runs from its due time, so a late generator or a stalled loop counts
    against the request.  Afterwards a seeded sample of answers is checked
    against the same system's ``predict`` and ``Database.execute``.
    """
    import asyncio

    from perfbench.stream import build_stream
    from repro.errors import ReproError

    suite, bundle, server = _serving_setup(params["cache"])
    dev = {name: suite.domain(name).dev.pairs for name in DOMAINS}
    stream = build_stream(dev, params["seed"], params["requests"])
    log = _traced(params)
    rate = params["rate"]

    async def replay():
        await server.start()
        t_setup = now()
        loop = asyncio.get_running_loop()
        first_due = loop.time() + 0.05
        outcomes: list = [None] * len(stream)

        async def one(index: int, domain: str, question: str) -> None:
            due = first_due + index / rate
            await asyncio.sleep(max(0.0, due - loop.time()))
            submitted = loop.time()
            result = await server.submit(question, domain)
            done = loop.time()
            outcomes[index] = (result, done - due, submitted - due, submitted, done)

        tasks = [
            asyncio.create_task(one(i, domain, question))
            for i, (domain, question) in enumerate(stream)
        ]
        await asyncio.gather(*tasks)
        t_done = now()
        stats = server.stats()
        await server.stop()
        return t_setup, t_done, outcomes, stats

    t_setup, t_done, outcomes, stats = asyncio.run(replay())
    trace = _trace_result(log, params)
    if log is not None:
        # The loop's clock and the tracer's are both time.monotonic.
        from perfbench import tracing

        trace["covered_s"], trace["request_s"] = tracing.request_coverage(log.spans, [
            (domain, question, submitted,
             result.timings_ms.get("total", (done - submitted) * 1000.0) / 1000.0)
            for (domain, question), (result, _, _, submitted, done) in zip(stream, outcomes)
        ])

    requests = []
    for (domain, question), (result, latency, lag, _, _) in zip(stream, outcomes):
        requests.append({
            "status": result.status,
            "latency_ms": latency * 1000.0,
            "lag_ms": lag * 1000.0,
            "timings_ms": result.timings_ms,
            "batch_size": result.batch_size,
        })

    rng = random.Random(params["seed"])
    sample = sorted(rng.sample(range(len(stream)), min(params["check"], len(stream))))
    mismatches = []
    for index in sample:
        domain, question = stream[index]
        result = outcomes[index][0]
        backend = bundle.backends[domain]
        expected_sql = backend.system.predict(question, domain)
        try:
            expected_rows = tuple(backend.database.execute(expected_sql).rows)
        except ReproError:
            expected_rows = None
        if result.sql != expected_sql or result.rows != expected_rows:
            mismatches.append({"index": index, "question": question})

    return {
        "t_setup": t_setup,
        "t_done": t_done,
        "requests": requests,
        "counters": dict(stats.counters),
        "checked": len(sample),
        "mismatches": mismatches,
        **trace,
    }


PHASES = {
    "reproduce.setup": reproduce_setup,
    "reproduce.tables": reproduce_tables,
    "serve.prepare": serve_prepare,
    "serve.start": serve_start,
    "serve.stream": serve_stream,
}


def _reap_children() -> None:
    """Wait for every process this phase started (pool workers included)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(argv: list[str]) -> int:
    phase, params_path, result_path = argv
    with open(params_path, encoding="utf-8") as handle:
        params = json.load(handle)
    result = PHASES[phase](params)
    _reap_children()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
