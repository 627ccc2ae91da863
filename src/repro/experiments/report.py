"""Run the experiment suite through the scenario engine and render a
paper-vs-measured report.

Usage::

    python -m repro.experiments.report             # fast artifacts only
    python -m repro.experiments.report --training  # include Fig. 3 / Fig. 11
    python -m repro.experiments.report --json      # machine-readable output

The text output is one table per artifact with measured values next to
the paper's published numbers. All simulation flows through the shared
scenario cache, so a second report pass in the same process performs
zero redundant ``simulate_step`` calls. The sweeps run serially, so the
report is deterministic.

``--telemetry``/``--telemetry-out``/``--run-store`` trace the run
(phase tree, JSONL event log, append-only run store for
``python -m repro.telemetry.analyze``/``compare``); see
:mod:`repro.telemetry.cli` for the shared contract.
"""

from __future__ import annotations

import argparse
import inspect
from typing import Any, Dict, List

from ..scenarios import default_cache
from ..serialization import dumps, json_value as _json_value
from ..telemetry import (
    add_telemetry_arguments,
    begin_telemetry,
    default_tracer,
    finish_telemetry,
)
from . import ALL_EXPERIMENTS
from .common import ExperimentResult

# Artifacts that require tiny-model training (minutes, not seconds).
TRAINING_EXPERIMENTS = ("fig3", "fig11")


def _run_module(module, **kwargs) -> ExperimentResult:
    """Call ``module.run`` with only the kwargs its signature accepts, so
    ``scale`` reaches the training experiments without forcing every
    module onto one signature."""
    parameters = inspect.signature(module.run).parameters
    return module.run(**{k: v for k, v in kwargs.items() if k in parameters})


def collect_results(
    include_training: bool = False,
    scale: str = "smoke",
) -> Dict[str, ExperimentResult]:
    """Execute the suite; training artifacts only when requested."""
    results: Dict[str, ExperimentResult] = {}
    tracer = default_tracer()
    with tracer.span("report.collect", scale=scale):
        for key, module in ALL_EXPERIMENTS.items():
            if key in TRAINING_EXPERIMENTS and not include_training:
                continue
            with tracer.span(f"experiment.{key}"):
                results[key] = _run_module(module, scale=scale)
    return results


def report_payload(
    include_training: bool = False,
    scale: str = "smoke",
) -> Dict[str, Any]:
    """The report as a JSON-serializable structure (``--json``)."""
    results = collect_results(include_training=include_training, scale=scale)
    experiments = []
    for key, result in results.items():
        experiments.append(
            {
                "id": result.experiment_id,
                "title": result.title,
                "rows": [
                    {
                        "label": row.label,
                        "measured": _json_value(row.measured),
                        "paper": _json_value(row.paper),
                        "note": row.note,
                        "matches_paper": row.matches_paper(),
                    }
                    for row in result.rows
                ],
            }
        )
    stats = default_cache().stats()
    return {
        "experiments": experiments,
        "skipped": [k for k in TRAINING_EXPERIMENTS if k not in results],
        "cache": {"hits": stats.hits, "misses": stats.misses,
                  "entries": stats.entries},
    }


def run_report(
    include_training: bool = False,
    scale: str = "smoke",
) -> str:
    """Execute experiments and return the combined report text."""
    results = collect_results(include_training=include_training, scale=scale)
    sections: List[str] = []
    for key in ALL_EXPERIMENTS:
        if key not in results:
            sections.append(f"== {key}: skipped (rerun with --training) ==")
            continue
        result = results[key]
        matched = sum(1 for r in result.rows if r.matches_paper() is True)
        compared = sum(1 for r in result.rows if r.matches_paper() is not None)
        sections.append(result.to_table())
        if compared:
            sections.append(f"   -> {matched}/{compared} paper-comparable rows within 50%")
    stats = default_cache().stats()
    sections.append(
        f"== scenario cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.entries} traces, {stats.simulations} simulations) =="
    )
    return "\n\n".join(sections)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--training", action="store_true",
                        help="also run the training-based experiments (Fig. 3, Fig. 11)")
    parser.add_argument("--scale", default="smoke", choices=("smoke", "bench", "full"),
                        help="size preset for the training experiments")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON instead of tables")
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)
    begin_telemetry(args)
    if args.as_json:
        payload = report_payload(include_training=args.training, scale=args.scale)
        block = finish_telemetry(args, "repro.experiments.report", default_cache())
        if block is not None:
            payload["telemetry"] = block
        print(dumps(payload, indent=2))
    else:
        print(run_report(include_training=args.training, scale=args.scale))
        finish_telemetry(args, "repro.experiments.report", default_cache())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
