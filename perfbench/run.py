"""The repository's benchmark: what users run, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload finetune-tiny --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seed 1     # every table, one command

Workloads (see each module's docstring):

* ``cold-cli`` — fresh ``repro.cluster.plan`` / ``repro.spot.plan`` /
  ``repro.experiments.report`` processes with nothing warm. It is not a
  workload of ``BENCHMARK.json``: on a shared host the wall time of a
  fresh process follows the neighbours (page cache, spare core) more
  than the program, and its medians spread by a third of their value
  between runs of the same code. Import and process start stay gated
  through ``setup_s`` of the other two workloads and are broken down
  by the traced run;
* ``serve-mixed`` — one ``repro.service.serve`` process under a closed
  loop of ``nproc`` keep-alive clients sending seeded, mostly repeated
  plan requests;
* ``finetune-tiny`` — QLoRA on sparse ``MIXTRAL_TINY`` and full
  fine-tuning of sparse ``BLACKMAMBA_TINY`` from a seeded init, then an
  evaluation pass.

``--trace 0`` prints the end-to-end table and, as the last line, a JSON
object with ``correct``/``attempted``/``failed`` and the end-to-end
metrics. ``--trace 1`` runs the per-layer probe instead (``layers.py``):
every layer's public entry point wrapped in spans, written as schema-v1
JSONL under ``.perfbench/`` for ``python -m repro.telemetry.analyze``,
and the per-layer metrics in the JSON line.

The JSON metrics are shared by all workloads, each defined on the
workload's unit of work (a CLI process, a request, a training step):

* ``setup_s`` — median of ``SETUP_REPEATS`` set-ups: a cold probe plan
  process (cold-cli), spawning the service until ``/healthz`` answers
  (serve-mixed), import + dataset + models + QLoRA conversion in a fresh
  interpreter (finetune-tiny);
* ``p50_ms`` — median process wall time per command, averaged over the
  three commands (cold-cli); client-side request latency (serve-mixed);
  step time per model, averaged over the two models (finetune-tiny);
* ``tail_ms`` — the highest percentile of the same samples, pooled, that
  leaves ten samples beyond it: p99 of requests (serve-mixed sends at
  least 1000), p95 of steps (finetune-tiny takes at least 200), and the
  slowest process on cold-cli, where even p90 would not;
* ``throughput_per_s`` — processes, requests or training tokens per
  second of measured time;
* ``peak_rss_mb`` — the largest peak RSS of the measured processes.

Medians and percentiles are the mean of the samples ranked within a
narrow band around them (``common.band_mean``), which keeps them steady
on latencies that sit on kernel ticks. The table above the JSON line
also names the workload-specific figures (``cli_cluster_s``,
``req_p50_ms``, ``mixtral_tokens_per_s``, ``error_rate``, ...), each with
its sample count. ``attempted``/``failed`` count operations and output
checks; ``error_rate`` is their ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import common

WORKLOADS = ("cold-cli", "serve-mixed", "finetune-tiny")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> common.RunRecord:
    host = common.host_loop_ms()
    if trace:
        import layers

        record = layers.run(workload, seed, seconds)
    elif workload == "cold-cli":
        import cold_cli

        record = cold_cli.run(seed, seconds)
    elif workload == "serve-mixed":
        import serve_mixed

        record = serve_mixed.run(seed, seconds)
    else:
        import finetune_tiny

        record = finetune_tiny.run(seed, seconds)
    host += common.host_loop_ms()
    record.notes["host speed, ms per 200k-step Python loop"] = f"{statistics.median(host):.2f}"
    path = record.save_outputs("trace" if trace else "run")
    record.notes["output sha256s"] = str(path.relative_to(common.ROOT))
    print(record.render(), flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload, then the traced probe once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    common.use_checkout_src()
    if args.workload != "all":
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(record.result_line(), flush=True)
        return 0
    records = [measure(w, args.seed, args.seconds, False) for w in WORKLOADS]
    records.append(measure("all", args.seed, args.seconds, True))
    print(json.dumps({
        "correct": all(r.failed == 0 for r in records),
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {
            f"{r.workload if i < len(WORKLOADS) else 'trace'}/{name}": {"value": m.value, "unit": m.unit}
            for i, r in enumerate(records) for name, m in r.metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
