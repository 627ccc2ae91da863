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
on the A40. The plan flags are the fields of
:class:`~repro.cluster.request.ClusterPlanRequest`, the same request
``POST /plan/cluster`` takes as a JSON body.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Type

from ..serialization import dumps
from ..telemetry import begin_telemetry, finish_telemetry
from .request import (  # noqa: F401  (resolvers re-exported for callers of this CLI)
    DENSITIES,
    ClusterPlanRequest,
    RequestError,
    resolve_gpu_name,
    resolve_model_key,
)

_parse_densities = DENSITIES.__getitem__


def build_parser() -> argparse.ArgumentParser:
    return ClusterPlanRequest.build_parser(__doc__.splitlines()[0])


def run_cli(request_type: Type[ClusterPlanRequest], parser: argparse.ArgumentParser,
            argv: Optional[List[str]]) -> int:
    """Parse ``argv`` into a ``request_type``, plan it and print the plan:
    the body of both plan CLIs."""
    args = parser.parse_args(argv)
    try:
        request = request_type.from_args(args)
    except RequestError as exc:
        parser.error(str(exc))
    begin_telemetry(args)
    planner, plan = request.run()
    block = finish_telemetry(
        args, request_type.command, planner.cache, grid=planner.last_grid
    )
    if args.as_json:
        payload = plan.to_payload()
        if block is not None:
            payload["telemetry"] = block
        print(dumps(payload, indent=2))
    else:
        print(plan.to_table(top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli(ClusterPlanRequest, build_parser(), argv)


if __name__ == "__main__":
    raise SystemExit(main())
