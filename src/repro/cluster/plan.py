"""Plan a multi-GPU fine-tune: Pareto cost/time frontier from the CLI.

Usage::

    python -m repro.cluster.plan --model mixtral --gpu a40 --deadline-hours 24 --json
    python -m repro.cluster.plan --model blackmamba --budget 50
    python -m repro.cluster.plan --model mixtral --dataset openorca
    python -m repro.cluster.plan --model mixtral --density dense --gpu a40 \\
        --parallelism auto --max-tp 8 --grad-accum 1,4

Mirrors ``repro.experiments.report``: ``--json`` for machine-readable
output and the shared telemetry flags (``--telemetry``,
``--telemetry-out FILE``, ``--run-store DIR`` / ``$REPRO_RUN_STORE`` —
the latter feeds ``python -m repro.telemetry.analyze``/``compare``).
Model and GPU names are resolved case-insensitively with unique-prefix
matching, so ``--model mixtral --gpu a40`` means the paper-scale Mixtral
on the A40.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..gpu.multigpu import INTERCONNECTS
from ..gpu.specs import GPU_REGISTRY
from ..models.registry import MODEL_REGISTRY
from ..serialization import dumps
from ..telemetry import add_telemetry_arguments, begin_telemetry, finish_telemetry
from .planner import (
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    ClusterPlanner,
)

# Family shorthands resolve to the paper-scale configs (never the tiny
# training stand-ins, which share the family prefix).
MODEL_ALIASES = {
    "mixtral": "mixtral-8x7b",
    "blackmamba": "blackmamba-2.8b",
}


def _resolve(name: str, registry, kind: str, aliases=None) -> str:
    """Registry entry for ``name``: alias, exact (case-insensitive)
    match, or unique prefix — with an ambiguity/availability hint."""
    lowered = name.lower()
    if aliases and lowered in aliases:
        return aliases[lowered]
    table = {entry.lower(): entry for entry in registry}
    if lowered in table:
        return table[lowered]
    matches = sorted(entry for low, entry in table.items() if low.startswith(lowered))
    if len(matches) == 1:
        return matches[0]
    hint = f"ambiguous between {matches}" if matches else f"available: {sorted(registry)}"
    raise KeyError(f"unknown {kind} {name!r}; {hint}")


def resolve_model_key(name: str) -> str:
    """Model registry key: family alias ('mixtral'), exact key, or
    unique prefix."""
    return _resolve(name, MODEL_REGISTRY, "model", MODEL_ALIASES)


def resolve_gpu_name(name: str) -> str:
    """GPU registry name: exact or unique prefix, so ``a40`` and ``h100``
    work while ``a100`` demands a suffix."""
    return _resolve(name, GPU_REGISTRY, "GPU")


def _parse_positive_csv(values: List[str], convert, invalid: str, empty: str):
    """Repeatable comma-separated flag values as a deduped tuple of
    positive numbers (shared by ``--num-gpus`` here and the spot CLI's
    ``--checkpoint-minutes``). Conversion errors surface via
    ``parser.error`` in the callers' ``main``."""
    items = []
    for value in values:
        for part in value.split(","):
            if not part:
                continue
            item = convert(part)
            if not item > 0:  # also rejects NaN
                raise ValueError(invalid.format(item))
            items.append(item)
    if not items:
        raise ValueError(empty)
    return tuple(dict.fromkeys(items))  # dedupe, preserving order


def _parse_num_gpus(values: Optional[List[str]]) -> Sequence[int]:
    if not values:
        return DEFAULT_NUM_GPUS
    return _parse_positive_csv(
        values, int,
        "cluster sizes must be >= 1, got {}",
        "--num-gpus given but no cluster sizes parsed",
    )


def _parse_grad_accums(values: Optional[List[str]]) -> Sequence[int]:
    if not values:
        return (1,)
    return _parse_positive_csv(
        values, int,
        "gradient-accumulation depths must be >= 1, got {}",
        "--grad-accum given but no depths parsed",
    )


def validate_parallelism_args(args: argparse.Namespace) -> Sequence[int]:
    """Validate the shared parallelism flags and return the parsed
    gradient-accumulation depths (raises ``ValueError`` for
    ``parser.error`` in the callers' ``main``)."""
    if args.max_tp < 1:
        raise ValueError(f"--max-tp must be >= 1, got {args.max_tp}")
    if args.parallelism == "tp" and args.max_tp < 2:
        raise ValueError("--parallelism tp needs --max-tp >= 2")
    return _parse_grad_accums(args.grad_accum)


def add_parallelism_arguments(parser: argparse.ArgumentParser) -> None:
    """The parallelism-strategy knobs shared by the plan CLIs."""
    parser.add_argument("--parallelism", choices=PARALLELISM_MODES, default="dp",
                        help="layout axis: dp (full replicas, the classic sweep), "
                             "tp (tensor-parallel only), auto (both; cells that "
                             "fit no single device are priced at the TP degrees "
                             "that shard them into fitting) (default: dp)")
    parser.add_argument("--max-tp", type=int, default=DEFAULT_MAX_TP, metavar="N",
                        help="largest tensor-parallel degree to enumerate "
                             f"(powers of two; default: {DEFAULT_MAX_TP})")
    parser.add_argument("--grad-accum", action="append", metavar="K[,K...]",
                        help="gradient-accumulation depth(s) to sweep — trades "
                             "per-device micro-batch for global batch at fixed "
                             "memory (default: 1)")


def _parse_densities(density: str) -> Sequence[bool]:
    return {"sparse": (False,), "dense": (True,), "both": (False, True)}[density]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.plan",
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
                        help="dollar target the recommendation must meet")
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
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    begin_telemetry(args)
    planner = ClusterPlanner(
        model_key,
        dataset=args.dataset,
        epochs=args.epochs,
        num_queries=args.num_queries,
        seq_len=args.seq_len,
    )
    plan = planner.plan(
        gpus=gpus,
        providers=args.provider,
        num_gpus=num_gpus,
        interconnects=tuple(args.interconnect) if args.interconnect else DEFAULT_INTERCONNECTS,
        densities=_parse_densities(args.density),
        batch_sizes=tuple(args.batch_size) if args.batch_size else None,
        deadline_hours=args.deadline_hours,
        budget_dollars=args.budget_dollars,
        parallelism=args.parallelism,
        max_tp=args.max_tp,
        grad_accums=grad_accums,
    )
    block = finish_telemetry(
        args, "repro.cluster.plan", planner.cache, grid=planner.last_grid
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
