"""Exporters: Chrome ``trace_event`` JSON, a JSONL span log, a terminal
flame summary, and the JSON writer every bench report goes through.

* :func:`write_chrome_trace` emits the classic ``traceEvents`` array of
  complete (``"ph": "X"``) events plus thread/process-name metadata; the
  file loads directly in ``chrome://tracing`` and Perfetto.
* :func:`write_span_log` emits one JSON object per span (schema checked by
  :func:`validate_span_log`, which CI runs against every uploaded trace).
* :func:`flame_summary` aggregates the span tree by name-path and renders a
  top-down table of total/self time — the "where did the time go" answer
  without leaving the terminal.
* The bench harness: :func:`bench_envelope` starts every bench report
  (``engine-bench``, ``serve-bench``, ``chaos-bench``,
  ``robustness-bench``), :func:`percentile` is their one latency
  percentile, and :func:`write_report` writes a report (``diff-exec``'s
  too) as sorted, indented JSON, so reruns of the same report are
  byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro.obs.span import Span

#: Keys every span-log record must carry (see :meth:`Span.to_dict`).
SPAN_LOG_REQUIRED_KEYS = (
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "duration_s",
    "status",
    "pid",
    "thread",
    "attrs",
    "events",
)


def _finished(spans) -> list[Span]:
    return [span for span in spans if span.end_s is not None]


# -- Chrome trace_event --------------------------------------------------------


def chrome_trace(spans) -> dict:
    """The ``trace_event`` document for a list of spans."""
    spans = sorted(_finished(spans), key=lambda s: s.start_s)
    tids: dict[tuple[int, str], int] = {}
    for span in spans:
        tids.setdefault((span.pid, span.thread), len(tids) + 1)

    events: list[dict] = []
    for (pid, thread), tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    for span in spans:
        tid = tids[(span.pid, span.thread)]
        events.append(
            {
                "name": span.name,
                "cat": "repro" if span.status == "ok" else "repro,error",
                "ph": "X",
                "pid": span.pid,
                "tid": tid,
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    **span.attrs,
                },
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "pid": span.pid,
                    "tid": tid,
                    "ts": round(event.time_s * 1e6, 3),
                    "args": dict(event.attrs),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)) + "\n")
    return path


# -- JSONL span log ------------------------------------------------------------


def write_span_log(spans, path: str | Path) -> Path:
    """One JSON object per finished span, in start order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(_finished(spans), key=lambda s: (s.start_s, s.span_id))
    with path.open("w") as handle:
        for span in ordered:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return path


def validate_span_log(path: str | Path) -> int:
    """Check a span log against the schema; returns the span count.

    Raises :class:`ValueError` on the first malformed record: missing keys,
    wrong types, duplicate span ids, or a parent id that resolves to no
    span in the log.
    """
    seen: set[str] = set()
    parents: list[tuple[int, str]] = []
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: not JSON ({exc})") from None
            missing = [key for key in SPAN_LOG_REQUIRED_KEYS if key not in record]
            if missing:
                raise ValueError(f"line {line_no}: missing keys {missing}")
            if not isinstance(record["span_id"], str) or not record["span_id"]:
                raise ValueError(f"line {line_no}: span_id must be a non-empty string")
            if record["span_id"] in seen:
                raise ValueError(f"line {line_no}: duplicate span_id {record['span_id']!r}")
            seen.add(record["span_id"])
            if record["parent_id"] is not None and not isinstance(record["parent_id"], str):
                raise ValueError(f"line {line_no}: parent_id must be null or a string")
            for key in ("start_s", "duration_s"):
                if not isinstance(record[key], (int, float)) or record[key] < 0:
                    raise ValueError(f"line {line_no}: {key} must be a non-negative number")
            if record["status"] not in ("ok", "error"):
                raise ValueError(f"line {line_no}: status {record['status']!r}")
            if not isinstance(record["attrs"], dict) or not isinstance(record["events"], list):
                raise ValueError(f"line {line_no}: attrs must be an object, events a list")
            if record["parent_id"] is not None:
                parents.append((line_no, record["parent_id"]))
    for line_no, parent_id in parents:
        if parent_id not in seen:
            raise ValueError(f"line {line_no}: parent_id {parent_id!r} not in log")
    return len(seen)


# -- flame summary -------------------------------------------------------------


class _FlameNode:
    __slots__ = ("count", "total_s", "self_s", "children")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children: dict[str, _FlameNode] = {}


def flame_summary(spans, max_lines: int = 40) -> str:
    """Aggregate the span forest by name-path and render a flame table."""
    spans = _finished(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    def fold(span: Span, nodes: dict[str, _FlameNode]) -> None:
        node = nodes.setdefault(span.name, _FlameNode())
        node.count += 1
        node.total_s += span.duration_s
        child_time = 0.0
        for child in children.get(span.span_id, ()):
            child_time += child.duration_s
            fold(child, node.children)
        node.self_s += max(0.0, span.duration_s - child_time)

    top: dict[str, _FlameNode] = {}
    for root in sorted(roots, key=lambda s: s.start_s):
        fold(root, top)

    lines = [f"== trace flame ({len(spans)} spans) ==",
             f"{'span':<48} {'count':>6} {'total':>10} {'self':>10}"]
    truncated = [0]

    def render(nodes: dict[str, _FlameNode], depth: int) -> None:
        ordered = sorted(nodes.items(), key=lambda kv: -kv[1].total_s)
        for name, node in ordered:
            if len(lines) >= max_lines + 2:
                truncated[0] += 1 + _count(node.children)
                continue
            label = ("  " * depth + name)[:48]
            lines.append(
                f"{label:<48} {node.count:>6} {node.total_s:>9.3f}s {node.self_s:>9.3f}s"
            )
            render(node.children, depth + 1)

    def _count(nodes: dict[str, _FlameNode]) -> int:
        return sum(1 + _count(node.children) for node in nodes.values())

    render(top, 0)
    if truncated[0]:
        lines.append(f"… {truncated[0]} more rows (raise max_lines to see them)")
    return "\n".join(lines)


# -- bench reports -------------------------------------------------------------

#: Version of the report layout every bench command writes.
BENCH_SCHEMA_VERSION = 3


def bench_envelope(benchmark: str, *, seed: int | None, repeat: int) -> dict:
    """The keys every bench report starts with.

    ``seed`` is the run's seed (None for an unseeded workload), ``repeat``
    how many times each measurement ran.  Nothing here differs between two
    runs on one host, so a deterministic report stays byte-identical.
    """
    # Imported here: ``repro.obs`` imports this module.
    from repro.obs import current_trace_path

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "host": {"cpus": os.cpu_count()},
        "seed": seed,
        "repeat": repeat,
        # Trace artifact of the enclosing ``trace`` run (None otherwise).
        "trace_path": current_trace_path(),
    }


def percentile(samples, q: float) -> float:
    """Exact nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def write_report(report: dict, path: str | Path) -> Path:
    """Write ``report`` as sorted, indented JSON (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
