"""Profile one telemetry run: critical path, self-time, cache audit.

The analyzer is the consume side of PR 7's span/metric/manifest events,
answering the questions a JSONL file alone cannot:

* **Per-span self-time** — wall-clock minus the wall-clock of the
  span's children (reconstructed from the ``parent`` links), so a fat
  parent phase that merely contains an expensive child stops looking
  hot. The identity ``self == duration - sum(children)`` is exact by
  construction and pinned by the analyzer-math tests.
* **Critical path** — the root-to-leaf chain maximizing cumulative
  duration (dynamic programming over the span forest, not a greedy
  descent), i.e. the single chain of nested phases that explains the
  most wall-clock.
* **Phase breakdown** — the manifest's per-phase wall-clock table.
* **Cache-efficiency audit** — derived rates over the ``cache.*``
  counters: hit rate (same semantics as ``CacheStats``), simulations
  per lookup, risk memoization hit rate.
* **Latency percentiles** — p50/p95 estimates from the histograms'
  log-spaced buckets (:func:`~repro.telemetry.metrics.quantile_from_buckets`).

Usage::

    python -m repro.telemetry.analyze events.jsonl
    python -m repro.telemetry.analyze latest --store runs/ --top 15
    python -m repro.telemetry.analyze latest:repro.spot.plan --json

``RUN`` is a JSONL file path or a run-store reference (``latest``,
``latest:<command>``, or a run-id prefix); ``--store`` defaults to
``$REPRO_RUN_STORE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import quantile_from_buckets
from .runstore import resolve_run_store, load_run

PERCENTILES = (0.5, 0.95)


# ---------------------------------------------------------------------------
# Span forest
# ---------------------------------------------------------------------------
@dataclass
class SpanNode:
    """One span event rebuilt into the tree, with its children."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    duration_s: float
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def child_seconds(self) -> float:
        return sum(child.duration_s for child in self.children)

    @property
    def self_seconds(self) -> float:
        """Wall-clock not explained by any child: duration minus the sum
        of child durations. Exact, unclamped — overlapping worker spans
        adopted under one parent can push it negative, which is itself
        a signal (the children ran concurrently)."""
        return self.duration_s - self.child_seconds


def split_events(
    events: Sequence[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]], Optional[Dict[str, object]]]:
    """``(spans, metrics, manifest)`` from a decoded event list; the
    manifest is ``None`` when absent (e.g. a hand-built span file)."""
    spans = [e for e in events if e.get("type") == "span"]
    metrics = [e for e in events if e.get("type") == "metric"]
    manifests = [e for e in events if e.get("type") == "manifest"]
    return spans, metrics, manifests[0] if manifests else None


def build_span_forest(span_events: Sequence[Dict[str, object]]) -> List[SpanNode]:
    """Rebuild the span tree(s) from flat events via the parent links;
    roots (and every child list) stay in event order, which is start
    order for tracer exports. Spans referencing an unknown parent
    become roots rather than vanishing; the schema does not force ids
    unique, so events reusing a seen id are dropped (first wins) rather
    than double-counted."""
    nodes: Dict[int, SpanNode] = {}
    for event in span_events:
        span_id = int(event["id"])
        if span_id in nodes:
            continue
        nodes[span_id] = SpanNode(
            name=str(event["name"]),
            span_id=span_id,
            parent_id=event.get("parent"),
            start_s=float(event.get("start_s", 0.0)),
            duration_s=float(event.get("duration_s") or 0.0),
            attrs=dict(event.get("attrs") or {}),
        )
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def _walk(roots: Sequence[SpanNode]):
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def self_time_table(roots: Sequence[SpanNode]) -> List[Dict[str, object]]:
    """Per-span-name totals — count, total wall, total self — sorted by
    self-time descending (ties by name, so the table is deterministic)."""
    table: Dict[str, Dict[str, float]] = {}
    for node in _walk(roots):
        row = table.setdefault(node.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += node.duration_s
        row["self_s"] += node.self_seconds
    total_self = sum(row["self_s"] for row in table.values())
    rows = [
        {
            "name": name,
            "count": int(row["count"]),
            "total_s": row["total_s"],
            "self_s": row["self_s"],
            "self_fraction": row["self_s"] / total_self if total_self > 0 else 0.0,
        }
        for name, row in table.items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["name"]))
    return rows


def critical_path(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """The root-to-leaf chain with the largest cumulative duration,
    computed by dynamic programming over the forest (a greedy descent
    can miss a deep expensive chain hiding under a cheap child). The
    post-order walk is iterative, so 1000+-deep span chains don't hit
    the interpreter recursion limit. Empty forest -> empty path."""
    best: Dict[int, Tuple[float, List[SpanNode]]] = {}
    for root in roots:
        stack: List[Tuple[SpanNode, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if node.span_id in best:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
                continue
            tail_cost, tail = 0.0, []
            for child in node.children:
                cost, path = best[child.span_id]
                if cost > tail_cost:
                    tail_cost, tail = cost, path
            best[node.span_id] = (node.duration_s + tail_cost, [node] + tail)
    top_cost, top_path = 0.0, []
    for root in roots:
        cost, path = best[root.span_id]
        if cost > top_cost:
            top_cost, top_path = cost, path
    return top_path


# ---------------------------------------------------------------------------
# Metrics views
# ---------------------------------------------------------------------------
def _counters(metric_events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    return {
        str(e["name"]): int(e["value"])
        for e in metric_events
        if e.get("kind") == "counter"
    }


def cache_audit(metric_events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Derived cache-efficiency rates from the run's counters. The hit
    rate matches ``CacheStats.hit_rate`` exactly: ``hits / lookups``."""
    counters = _counters(metric_events)
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    simulations = counters.get("cache.simulations", 0)
    risk_hits = counters.get("cache.risk_hits", 0)
    risk_misses = counters.get("cache.risk_misses", 0)
    lookups = hits + misses
    risk_lookups = risk_hits + risk_misses
    return {
        "lookups": lookups,
        "hits": hits,
        "misses": misses,
        "simulations": simulations,
        "hit_rate": hits / lookups if lookups else 0.0,
        "simulations_per_lookup": simulations / lookups if lookups else 0.0,
        "risk_hits": risk_hits,
        "risk_misses": risk_misses,
        "risk_hit_rate": risk_hits / risk_lookups if risk_lookups else 0.0,
    }


def latency_percentiles(
    metric_events: Sequence[Dict[str, object]],
    percentiles: Sequence[float] = PERCENTILES,
) -> Dict[str, Dict[str, object]]:
    """Per-histogram summaries with bucket-estimated percentiles, keyed
    by metric name (sorted). Histograms without buckets (pre-bucket
    files) report ``None`` percentiles; empty histograms are skipped."""
    summaries: Dict[str, Dict[str, object]] = {}
    for event in metric_events:
        if event.get("kind") != "histogram":
            continue
        count = int(event.get("count") or 0)
        if not count:
            continue
        total = float(event.get("sum") or 0.0)
        summary: Dict[str, object] = {
            "count": count,
            "mean_s": total / count,
            "min_s": event.get("min"),
            "max_s": event.get("max"),
        }
        for q in percentiles:
            summary[f"p{int(q * 100)}_s"] = quantile_from_buckets(
                event.get("buckets") or [], count, event.get("min"),
                event.get("max"), q,
            )
        summaries[str(event["name"])] = summary
    return dict(sorted(summaries.items()))


# ---------------------------------------------------------------------------
# The profile
# ---------------------------------------------------------------------------
def analyze_run(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The full profile of one run as a JSON-safe structure."""
    span_events, metric_events, manifest = split_events(events)
    roots = build_span_forest(span_events)
    path = critical_path(roots)
    return {
        "command": manifest.get("command") if manifest else None,
        "version": manifest.get("version") if manifest else None,
        "version_source": manifest.get("version_source") if manifest else None,
        "grid_digest": manifest.get("grid_digest") if manifest else None,
        "spans": len(span_events),
        "self_time": self_time_table(roots),
        "critical_path": [
            {"name": node.name, "duration_s": node.duration_s,
             "self_s": node.self_seconds}
            for node in path
        ],
        "critical_path_seconds": path[0].duration_s if path else 0.0,
        "phases": dict(sorted((manifest.get("phases") or {}).items()))
        if manifest else {},
        "cache": cache_audit(metric_events),
        "latency": latency_percentiles(metric_events),
    }


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.3f} ms" if seconds < 1.0 else f"{seconds:.3f} s"


def render_profile(profile: Dict[str, object], label: str, top: int = 10) -> str:
    """The human-readable profile (the ``analyze`` CLI's default)."""
    lines: List[str] = []
    header = f"== run {label}"
    if profile.get("command"):
        header += f" · {profile['command']}"
    if profile.get("version"):
        header += f" · {profile['version']} ({profile.get('version_source')})"
    lines.append(header + " ==")

    rows = profile["self_time"][:top]
    if rows:
        lines.append("")
        lines.append(f"-- top self-time spans ({len(rows)}/{len(profile['self_time'])}) --")
        lines.append(f"{'span':<34} {'count':>6} {'total':>12} {'self':>12} {'self%':>7}")
        for row in rows:
            lines.append(
                f"{row['name']:<34} {row['count']:>6} {_ms(row['total_s']):>12} "
                f"{_ms(row['self_s']):>12} {row['self_fraction'] * 100:>6.1f}%"
            )

    path = profile["critical_path"]
    if path:
        lines.append("")
        lines.append(
            f"-- critical path ({_ms(profile['critical_path_seconds'])} end to end) --"
        )
        for depth, hop in enumerate(path):
            lines.append(
                f"{'  ' * depth}{hop['name']}  {_ms(hop['duration_s'])}"
                f" (self {_ms(hop['self_s'])})"
            )

    if profile["phases"]:
        lines.append("")
        lines.append("-- phases (manifest wall-clock) --")
        for name, seconds in profile["phases"].items():
            lines.append(f"{name:<40} {_ms(float(seconds)):>12}")

    cache = profile["cache"]
    lines.append("")
    lines.append("-- cache audit --")
    lines.append(
        f"lookups {cache['lookups']} · hit rate {cache['hit_rate'] * 100:.1f}%"
        f" · simulations {cache['simulations']}"
        f" ({cache['simulations_per_lookup']:.2f}/lookup)"
    )
    lines.append(
        f"risk {cache['risk_hits']} hits / {cache['risk_misses']} misses "
        f"({cache['risk_hit_rate'] * 100:.1f}%)"
    )

    if profile["latency"]:
        lines.append("")
        lines.append("-- latency percentiles (bucket estimates) --")
        for name, summary in profile["latency"].items():
            lines.append(
                f"{name:<38} n={summary['count']:<6} p50 {_ms(summary.get('p50_s')):>12}"
                f"  p95 {_ms(summary.get('p95_s')):>12}  max {_ms(summary.get('max_s')):>12}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _print_clipped(text: str, exit_code: int) -> int:
    """Print a report, tolerating a closed stdout (``analyze ... |
    head``): a broken pipe keeps the intended exit code instead of a
    traceback, with stdout parked on devnull so interpreter shutdown
    doesn't re-raise on flush."""
    try:
        print(text)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.analyze",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("run",
                        help="a --telemetry-out JSONL file, or a run-store "
                             "reference: 'latest', 'latest:<command>', or a "
                             "run-id prefix")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="run store directory (default: $REPRO_RUN_STORE)")
    parser.add_argument("--top", type=int, default=10,
                        help="self-time rows in the text profile (default: 10)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the profile as JSON instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = resolve_run_store(args.store)
    try:
        label, events = load_run(args.run, store=store)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profile = analyze_run(events)
    if args.as_json:
        text = json.dumps({"run": label, **profile}, indent=2, allow_nan=False)
    else:
        text = render_profile(profile, label, top=args.top)
    return _print_clipped(text, 0)


if __name__ == "__main__":
    raise SystemExit(main())
