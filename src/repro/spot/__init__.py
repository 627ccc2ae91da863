"""Spot-market risk subsystem — preemption-aware cost estimation.

The paper's Eq. 2 prices wall-clock hours at on-demand rates; real
fine-tuning budgets lean on spot/preemptible capacity, whose
interruptions stretch wall-clock time and can eat the discount. This
package layers an explicit risk model on the cluster planner:

* :class:`SpotMarket` — per-provider preemption hazard (exponential
  interruption model, mean-time-between-preemptions), registered beside
  the :mod:`repro.cloud.pricing` spot price tier;
* :class:`CheckpointPolicy` — checkpoint cadence with write/restart
  costs derived from the model's state size via ``memory.estimator``;
* :func:`expected_makespan_hours` — closed-form expected makespan under
  the hazard + policy, with the full closed-form distribution
  (:class:`AnalyticMakespanDistribution`: p50/p95, completion
  probability, no sampling) as the serving path and the seeded,
  batched :class:`SpotSimulator` Monte Carlo as the validation path
  (``risk_mode``: analytic serves, MC validates);
* :class:`RiskAdjustedPlanner` — every cluster candidate priced on
  demand *and* spot-with-risk; the Pareto frontier gains an
  (expected dollars, p95 hours) view and the deadline pick accepts a
  completion-probability target;
* ``python -m repro.spot.plan`` — the risk-adjusted "what will this
  fine-tune cost?" CLI, mirroring ``repro.cluster.plan``.

The risk layer is pure post-processing over cached replica traces. The
planner picks each candidate's checkpoint cadence itself (Daly's optimum,
or the best entry of a ``checkpoint_minutes`` menu), so sweeping spot
markets and cadences adds zero simulations.
"""

from .checkpoint import (
    CheckpointPolicy,
    DEFAULT_INTERVAL_MINUTES,
    checkpoint_state_gb,
    optimal_interval_minutes,
    restart_state_gb,
)
from .market import (
    DEFAULT_MTBP_HOURS,
    SPOT_MARKETS,
    SpotMarket,
    get_spot_market,
)
from .planner import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RISK_MODE,
    ONDEMAND,
    RISK_MODES,
    SPOT,
    RiskAdjustedPlanner,
    SpotCandidate,
    SpotPlan,
    risk_pareto_frontier,
)
from .risk import (
    AnalyticMakespanDistribution,
    MakespanDistribution,
    SpotSimulator,
    expected_makespan_hours,
    expected_preemptions,
    segment_lengths,
)

__all__ = [
    "AnalyticMakespanDistribution",
    "CheckpointPolicy",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_INTERVAL_MINUTES",
    "DEFAULT_MTBP_HOURS",
    "DEFAULT_RISK_MODE",
    "MakespanDistribution",
    "RISK_MODES",
    "ONDEMAND",
    "RiskAdjustedPlanner",
    "SPOT",
    "SPOT_MARKETS",
    "SpotCandidate",
    "SpotMarket",
    "SpotPlan",
    "SpotSimulator",
    "checkpoint_state_gb",
    "expected_makespan_hours",
    "expected_preemptions",
    "get_spot_market",
    "optimal_interval_minutes",
    "restart_state_gb",
    "risk_pareto_frontier",
    "segment_lengths",
]
