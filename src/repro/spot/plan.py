"""Plan a fine-tune across spot and on-demand tiers from the CLI.

Usage::

    python -m repro.spot.plan --model mixtral --gpu a40 --deadline-hours 24 --confidence 0.95 --json
    python -m repro.spot.plan --model mixtral --mtbp-hours 2 --checkpoint-minutes 10,30,60
    python -m repro.spot.plan --model blackmamba --spot only --budget 50

Mirrors ``python -m repro.cluster.plan`` (same model/GPU resolution,
same ``--json`` output plus the telemetry flags
``--telemetry``/``--telemetry-out``/``--run-store``, the last feeding
the run store that ``python -m repro.telemetry.analyze``/``compare``
consume; output is deterministic, Monte Carlo seeds included) and adds
the risk knobs: ``--spot`` selects the tiers, ``--risk-mode`` the
percentile engine (``analytic``, the default, serves p50/p95/completion
probability from the closed-form distribution with no sampling; ``mc``
runs the batched Monte Carlo; ``both`` serves analytic and validates
with MC — analytic serves, MC validates), ``--mtbp-hours`` overrides
every provider's mean time between preemptions, ``--checkpoint-minutes``
offers checkpoint cadences (each spot candidate adopts the best one;
without the flag every candidate gets Daly's closed-form optimum
``sqrt(2*MTBP*C)`` for its own fleet hazard and per-shard write cost),
and ``--confidence`` sets the completion-probability target a deadline
must be met with. The parallelism axes (``--parallelism dp|tp|auto``,
``--max-tp``, ``--grad-accum``) are inherited from the cluster planner;
checkpoint write/restart costs under tensor parallelism use the
per-device sharded state.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..cluster.plan import (
    _parse_densities,
    _parse_num_gpus,
    _parse_positive_csv,
    add_parallelism_arguments,
    resolve_gpu_name,
    resolve_model_key,
    validate_parallelism_args,
)
from ..gpu.multigpu import INTERCONNECTS
from ..serialization import dumps
from ..telemetry import add_telemetry_arguments, begin_telemetry, finish_telemetry
from .planner import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RISK_MODE,
    DEFAULT_SEED,
    RISK_MODES,
    RiskAdjustedPlanner,
)
from .risk import DEFAULT_TRIALS
from ..cluster.planner import DEFAULT_INTERCONNECTS, DEFAULT_NUM_GPUS


def _parse_checkpoint_minutes(values: Optional[List[str]]) -> Optional[Sequence[float]]:
    if not values:
        return None  # Daly closed-form optimum per candidate
    return _parse_positive_csv(
        values, float,
        "checkpoint cadences must be > 0 minutes, got {}",
        "--checkpoint-minutes given but no cadences parsed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spot.plan",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--model", required=True,
                        help="model to plan for (family alias like 'mixtral' or registry key)")
    parser.add_argument("--dataset", default="math14k",
                        help="dataset supplying seq_len and query count (default: math14k)")
    parser.add_argument("--gpu", action="append", metavar="NAME",
                        help="candidate GPU (repeatable; default: every priced GPU)")
    parser.add_argument("--provider", action="append", metavar="NAME",
                        help="cloud provider (repeatable; default: all in the catalog)")
    parser.add_argument("--num-gpus", action="append", metavar="N[,N...]",
                        help=f"cluster sizes to sweep (default: {','.join(map(str, DEFAULT_NUM_GPUS))})")
    parser.add_argument("--interconnect", action="append",
                        choices=sorted(INTERCONNECTS),
                        help="interconnect(s) to sweep (default: all)")
    parser.add_argument("--density", choices=("sparse", "dense", "both"), default="both",
                        help="expert routing(s) to sweep (default: both)")
    parser.add_argument("--batch-size", action="append", type=int, metavar="B",
                        help="explicit per-GPU batch size(s); default: per-cell memory maximum")
    add_parallelism_arguments(parser)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--num-queries", type=int, default=None,
                        help="override the dataset's query count")
    parser.add_argument("--seq-len", type=int, default=None,
                        help="override the dataset's padded sequence length")
    parser.add_argument("--deadline-hours", type=float, default=None,
                        help="wall-clock target the recommendation must meet")
    parser.add_argument("--budget", type=float, default=None, dest="budget_dollars",
                        help="expected-dollar target the recommendation must meet")
    parser.add_argument("--spot", choices=("both", "only", "off"), default="both",
                        help="capacity tiers to price (default: both)")
    parser.add_argument("--mtbp-hours", type=float, default=None,
                        help="override every provider's mean time between preemptions "
                             "(default: per-provider market model; inf = never preempted)")
    parser.add_argument("--checkpoint-minutes", action="append", metavar="M[,M...]",
                        help="checkpoint cadence menu; each spot candidate adopts the "
                             "best entry (default: Daly's closed-form optimum "
                             "sqrt(2*MTBP*C) per candidate)")
    parser.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE,
                        help="completion probability the deadline must be met with "
                             f"(default: {DEFAULT_CONFIDENCE})")
    parser.add_argument("--risk-mode", choices=RISK_MODES, default=DEFAULT_RISK_MODE,
                        help="percentile engine: 'analytic' serves p50/p95 from the "
                             "closed-form distribution with no sampling, 'mc' runs the "
                             "batched Monte Carlo validation path, 'both' serves "
                             f"analytic and reports the MC mean (default: {DEFAULT_RISK_MODE})")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help=f"Monte Carlo trials per spot candidate (default: {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base Monte Carlo seed (per-candidate seeds derive from it)")
    add_telemetry_arguments(parser)
    parser.add_argument("--top", type=int, default=10,
                        help="frontier rows in the text table (default: 10)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the plan as JSON instead of a table")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model_key = resolve_model_key(args.model)
        gpus = [resolve_gpu_name(g) for g in args.gpu] if args.gpu else None
        num_gpus = _parse_num_gpus(args.num_gpus)
        grad_accums = validate_parallelism_args(args)
        checkpoint_minutes = _parse_checkpoint_minutes(args.checkpoint_minutes)
        if args.mtbp_hours is not None and not args.mtbp_hours > 0:
            raise ValueError(f"--mtbp-hours must be positive, got {args.mtbp_hours}")
        if not 0.0 <= args.confidence <= 1.0:
            raise ValueError(f"--confidence must be in [0, 1], got {args.confidence}")
        if args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    begin_telemetry(args)
    planner = RiskAdjustedPlanner(
        model_key,
        dataset=args.dataset,
        epochs=args.epochs,
        num_queries=args.num_queries,
        seq_len=args.seq_len,
        mtbp_hours=args.mtbp_hours,
        checkpoint_minutes=checkpoint_minutes,
        trials=args.trials,
        seed=args.seed,
        risk_mode=args.risk_mode,
    )
    plan = planner.plan_spot(
        spot=args.spot,
        confidence=args.confidence,
        deadline_hours=args.deadline_hours,
        budget_dollars=args.budget_dollars,
        gpus=gpus,
        providers=args.provider,
        num_gpus=num_gpus,
        interconnects=tuple(args.interconnect) if args.interconnect else DEFAULT_INTERCONNECTS,
        densities=_parse_densities(args.density),
        batch_sizes=tuple(args.batch_size) if args.batch_size else None,
        parallelism=args.parallelism,
        max_tp=args.max_tp,
        grad_accums=grad_accums,
    )
    block = finish_telemetry(
        args, "repro.spot.plan", planner.cache, grid=planner.last_grid
    )
    if args.as_json:
        payload = plan.to_payload()
        if block is not None:
            payload["telemetry"] = block
        print(dumps(payload, indent=2))
    else:
        print(plan.to_table(top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
