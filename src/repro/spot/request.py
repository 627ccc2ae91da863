"""The spot plan request: the cluster request plus the risk knobs.

:class:`SpotPlanRequest` is the request behind both
``python -m repro.spot.plan`` and ``POST /plan/spot``; it extends
:class:`~repro.cluster.request.ClusterPlanRequest` by seven fields, each
defined once in the same :func:`~repro.cluster.request.option` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from ..cluster.request import POSITIVE, UNIT, ClusterPlanRequest, option
from .planner import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RISK_MODE,
    DEFAULT_SEED,
    RISK_MODES,
    RiskAdjustedPlanner,
    SpotPlan,
)
from .risk import DEFAULT_TRIALS

#: ``spot`` choices: the capacity tiers a plan prices.
SPOT_TIERS = ("both", "only", "off")


@dataclass(frozen=True)
class SpotPlanRequest(ClusterPlanRequest):
    """One ``/plan/spot`` request, resolved and validated."""

    command: ClassVar[str] = "repro.spot.plan"
    kind: ClassVar[str] = "spot"

    budget_dollars: Optional[float] = option(
        "--budget", "expected-dollar target the recommendation must meet",
        kind=float, bound=POSITIVE)
    spot: str = option(
        "--spot", "capacity tiers to price (default: both)", default="both", choices=SPOT_TIERS)
    mtbp_hours: Optional[float] = option(
        "--mtbp-hours",
        "override every provider's mean time between preemptions "
        "(default: per-provider market model; inf = never preempted)",
        kind=float, bound=POSITIVE)
    checkpoint_minutes: Optional[Tuple[float, ...]] = option(
        "--checkpoint-minutes",
        "checkpoint cadence menu; each spot candidate adopts the best entry "
        "(default: Daly's closed-form optimum sqrt(2*MTBP*C) per candidate)",
        kind=float, many=True, csv=True, bound=POSITIVE, noun="checkpoint cadences",
        metavar="M[,M...]")
    confidence: float = option(
        "--confidence",
        f"completion probability the deadline must be met with (default: {DEFAULT_CONFIDENCE})",
        default=DEFAULT_CONFIDENCE, kind=float, bound=UNIT)
    risk_mode: str = option(
        "--risk-mode",
        "percentile engine: 'analytic' serves p50/p95 from the closed-form distribution "
        "with no sampling, 'mc' runs the batched Monte Carlo validation path, 'both' "
        f"serves analytic and reports the MC mean (default: {DEFAULT_RISK_MODE})",
        default=DEFAULT_RISK_MODE, choices=RISK_MODES)
    trials: int = option(
        "--trials", f"Monte Carlo trials per spot candidate (default: {DEFAULT_TRIALS})",
        default=DEFAULT_TRIALS, kind=int, bound=POSITIVE)
    seed: int = option(
        "--seed", "base Monte Carlo seed (per-candidate seeds derive from it)",
        default=DEFAULT_SEED, kind=int)

    def run(self, cache=None, catalog=None, tracer=None) -> Tuple[RiskAdjustedPlanner, SpotPlan]:
        """Plan this request on the requested tiers: ``(planner, plan)``."""
        planner = RiskAdjustedPlanner(
            self.model,
            catalog=catalog,
            cache=cache,
            tracer=tracer,
            mtbp_hours=self.mtbp_hours,
            checkpoint_minutes=self.checkpoint_minutes,
            trials=self.trials,
            seed=self.seed,
            risk_mode=self.risk_mode,
            **self._planner_args(),
        )
        return planner, planner.plan_spot(
            spot=self.spot, confidence=self.confidence, **self._plan_args()
        )
