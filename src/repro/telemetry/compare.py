"""Diff two telemetry runs and gate on performance regressions.

The cross-run half of the consume side: per-phase wall-clock deltas,
engine counter deltas, and a noise-aware verdict suitable for CI —
"did this PR make warm plans slower?" becomes one exit code.

Usage::

    python -m repro.telemetry.compare baseline.jsonl candidate.jsonl
    python -m repro.telemetry.compare candidate.jsonl --baseline latest --store runs/
    python -m repro.telemetry.compare latest --baseline latest --store runs/ --threshold 0.2

Each run is a JSONL file path or a run-store reference (``latest``,
``latest:<command>``, run-id prefix; ``--store`` defaults to
``$REPRO_RUN_STORE``). With a single run given, the baseline defaults
to ``latest`` — resolved as the newest stored run *other than the
candidate itself* (command-matched when possible), so ``compare latest
--baseline latest`` diffs the two most recent runs.

**The noise-aware verdict.** A phase REGRESSES when it got slower both
relatively and absolutely: ``candidate > baseline * (1 + threshold)``
AND ``candidate - baseline > min_seconds``. The absolute floor
(``--min-seconds``, default 0.01 s) keeps micro-phases — whose
wall-clock is scheduler jitter, not work — from tripping the gate,
which is what makes the verdict stable between repeated warm runs (the
determinism contract covers tree shape and counts, never durations). Improvements are labeled symmetrically; phases present on
only one side are reported as ``added``/``removed`` but never gate.
Exit status: **0** when no phase regresses, **1** otherwise — the CI
regression gate.

Counter deltas (``cache.*``/``risk.*``) are reported for
every changed counter; identical runs of a deterministic workload diff
to zero everywhere, which the determinism tests pin down.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .analyze import _print_clipped, split_events
from .runstore import RunStore, resolve_run_store, load_run

DEFAULT_THRESHOLD = 0.2
DEFAULT_MIN_SECONDS = 0.01


def _phases(events: Sequence[Dict[str, object]]) -> Dict[str, float]:
    _, _, manifest = split_events(events)
    phases = (manifest or {}).get("phases") or {}
    return {str(name): float(seconds) for name, seconds in phases.items()}


def _counters(events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    _, metrics, _ = split_events(events)
    return {
        str(e["name"]): int(e["value"])
        for e in metrics
        if e.get("kind") == "counter"
    }


def phase_deltas(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> List[Dict[str, object]]:
    """Per-phase rows over the union of phase names (sorted), each with
    a verdict: ``regression`` / ``improvement`` (both gated by the
    relative threshold AND the absolute floor), ``ok`` (within noise),
    ``added`` / ``removed`` (present on one side only)."""
    rows: List[Dict[str, object]] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None:
            rows.append({"phase": name, "baseline_s": None, "candidate_s": cand,
                         "delta_s": None, "ratio": None, "verdict": "added"})
            continue
        if cand is None:
            rows.append({"phase": name, "baseline_s": base, "candidate_s": None,
                         "delta_s": None, "ratio": None, "verdict": "removed"})
            continue
        delta = cand - base
        ratio = cand / base if base > 0 else None
        if delta > min_seconds and cand > base * (1.0 + threshold):
            verdict = "regression"
        elif -delta > min_seconds and base > cand * (1.0 + threshold):
            verdict = "improvement"
        else:
            verdict = "ok"
        rows.append({"phase": name, "baseline_s": base, "candidate_s": cand,
                     "delta_s": delta, "ratio": ratio, "verdict": verdict})
    return rows


def counter_deltas(
    baseline: Dict[str, int], candidate: Dict[str, int]
) -> List[Dict[str, object]]:
    """Changed counters over the union of names (sorted); counters equal
    on both sides are omitted — a deterministic workload diffs empty."""
    rows: List[Dict[str, object]] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name, 0)
        cand = candidate.get(name, 0)
        if base != cand:
            rows.append({"counter": name, "baseline": base, "candidate": cand,
                         "delta": cand - base})
    return rows


def compare_runs(
    baseline_events: Sequence[Dict[str, object]],
    candidate_events: Sequence[Dict[str, object]],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, object]:
    """The full comparison: phase rows, counter rows, regression list,
    and the overall verdict (``"ok"`` / ``"regression"``)."""
    phases = phase_deltas(_phases(baseline_events), _phases(candidate_events),
                          threshold=threshold, min_seconds=min_seconds)
    counters = counter_deltas(_counters(baseline_events),
                              _counters(candidate_events))
    regressions = [row["phase"] for row in phases if row["verdict"] == "regression"]
    return {
        "threshold": threshold,
        "min_seconds": min_seconds,
        "phases": phases,
        "counters": counters,
        "regressions": regressions,
        "verdict": "regression" if regressions else "ok",
    }


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.3f} ms" if abs(seconds) < 1.0 else f"{seconds:.3f} s"


def render_comparison(
    result: Dict[str, object], baseline_label: str, candidate_label: str
) -> str:
    lines: List[str] = [
        f"== compare {baseline_label} (baseline) -> {candidate_label} (candidate) "
        f"· threshold {result['threshold'] * 100:.0f}% · floor "
        f"{_ms(result['min_seconds'])} ==",
        "",
        f"{'phase':<40} {'baseline':>12} {'candidate':>12} {'delta':>10} verdict",
    ]
    for row in result["phases"]:
        if row["delta_s"] is None:
            delta = "-"
        else:
            sign = "+" if row["delta_s"] >= 0 else "-"
            delta = f"{sign}{_ms(abs(row['delta_s']))}"
        lines.append(
            f"{row['phase']:<40} {_ms(row['baseline_s']):>12} "
            f"{_ms(row['candidate_s']):>12} {delta:>10} {row['verdict']}"
        )
    if result["counters"]:
        lines.append("")
        lines.append("counter deltas (baseline -> candidate)")
        for row in result["counters"]:
            lines.append(
                f"{row['counter']:<40} {row['baseline']:>10} -> {row['candidate']}"
                f" ({row['delta']:+d})"
            )
    lines.append("")
    if result["regressions"]:
        names = ", ".join(result["regressions"])
        lines.append(
            f"verdict: REGRESSION — {len(result['regressions'])} phase(s) beyond "
            f"threshold: {names}"
        )
    else:
        lines.append(
            f"verdict: ok — no phase regressed beyond "
            f"{result['threshold'] * 100:.0f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _resolve_baseline(
    store: Optional[RunStore],
    ref: str,
    candidate_label: str,
    candidate_events: Sequence[Dict[str, object]],
):
    """Baseline events for ``--baseline``. A plain ``latest`` excludes
    the candidate itself and prefers records sharing the candidate's
    command, so back-to-back ingests diff newest-vs-previous. The
    candidate is excluded by run id *and* by event content — a file-path
    candidate carries the path as its label, so only content equality
    catches the stored copy of the same run."""
    if ref == "latest":
        if store is None:
            raise ValueError(
                "--baseline latest needs a run store (--store or $REPRO_RUN_STORE)"
            )
        _, _, manifest = split_events(candidate_events)
        command = (manifest or {}).get("command")
        records = [r for r in store.records() if r.run_id != candidate_label]
        matching = [r for r in records if command and r.command == command]
        candidate_snapshot = list(candidate_events)
        for record in reversed(matching or records):
            events = store.load(record)
            if events != candidate_snapshot:
                return record.run_id, events
        raise ValueError(
            f"run store {store.root} has no baseline run other than the candidate"
        )
    return load_run(ref, store=store)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.compare",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("runs", nargs="+", metavar="RUN",
                        help="BASELINE CANDIDATE, or a single CANDIDATE with "
                             "--baseline; each is a JSONL file or a run-store "
                             "reference ('latest', 'latest:<command>', run-id "
                             "prefix)")
    parser.add_argument("--baseline", default=None, metavar="RUN",
                        help="baseline run when only CANDIDATE is positional "
                             "(default: latest — the newest stored run other "
                             "than the candidate)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="run store directory (default: $REPRO_RUN_STORE)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative slowdown a phase must exceed to regress "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
                        help="absolute slowdown floor in seconds — phases below "
                             "it never regress, keeping scheduler jitter out of "
                             f"the gate (default: {DEFAULT_MIN_SECONDS})")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the comparison as JSON instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error(f"expected 1 or 2 runs, got {len(args.runs)}")
    if len(args.runs) == 2 and args.baseline is not None:
        parser.error("give either BASELINE CANDIDATE or --baseline, not both")
    if args.threshold < 0:
        parser.error(f"--threshold must be >= 0, got {args.threshold}")
    if args.min_seconds < 0:
        parser.error(f"--min-seconds must be >= 0, got {args.min_seconds}")
    store = resolve_run_store(args.store)
    try:
        if len(args.runs) == 2:
            baseline_label, baseline_events = load_run(args.runs[0], store=store)
            candidate_label, candidate_events = load_run(args.runs[1], store=store)
        else:
            candidate_label, candidate_events = load_run(args.runs[0], store=store)
            baseline_label, baseline_events = _resolve_baseline(
                store, args.baseline or "latest", candidate_label, candidate_events
            )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = compare_runs(baseline_events, candidate_events,
                          threshold=args.threshold, min_seconds=args.min_seconds)
    if args.as_json:
        payload = {"baseline": baseline_label, "candidate": candidate_label, **result}
        text = json.dumps(payload, indent=2, allow_nan=False)
    else:
        text = render_comparison(result, baseline_label, candidate_label)
    return _print_clipped(text, 1 if result["regressions"] else 0)


if __name__ == "__main__":
    raise SystemExit(main())
