"""Spot-market risk planning — preemption-aware cost beyond Eq. 2.

Not a paper artifact: the paper's Eq. 2 prices uninterrupted on-demand
hours. This experiment runs the Table IV workload (Mixtral sparse on
MATH-14k x 10 epochs) through the risk-adjusted planner and reports what
the spot tier changes: the expected saving of the recommendation, the
makespan inflation preemptions cause, the closed-form-vs-Monte-Carlo
agreement the subsystem is validated on, and the completion probability
backing the ">= 95% chance of finishing in 24 h" constraint. Reference
values are the model's own structural claims, not published numbers.
"""

from __future__ import annotations

from ..gpu import A40, H100
from ..scenarios import SimulationCache
from ..spot import ONDEMAND, SPOT, RiskAdjustedPlanner
from .common import ExperimentResult

DEADLINE_HOURS = 24.0
CONFIDENCE = 0.95
EPOCHS = 10
TRIALS = 256  # enough for stable p50/p95 at report speed


def run(cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult(
        "spot", "Spot risk plan: Mixtral sparse, MATH-14k (risk-adjusted Pareto)"
    )
    # risk_mode="both": percentiles come from the analytic serving path
    # while the batched Monte Carlo still runs, so the closed-form-vs-MC
    # agreement row below keeps validating the model every report pass.
    planner = RiskAdjustedPlanner(
        "mixtral-8x7b", dataset="math14k", epochs=EPOCHS, cache=cache,
        trials=TRIALS, risk_mode="both",
    )
    plan = planner.plan_spot(
        gpus=(A40, H100),
        providers=("cudo",),
        densities=(False,),
        deadline_hours=DEADLINE_HOURS,
        confidence=CONFIDENCE,
    )
    result.add("num_candidates", len(plan.candidates))
    result.add("num_spot_candidates", len(plan.spot_candidates))
    result.add("num_feasible", len(plan.feasible))
    result.add("risk_frontier_size", len(plan.frontier))
    assert plan.recommended is not None
    rec = plan.recommended
    result.add("recommended", rec.label,
               note=f"E[${rec.expected_dollars:.2f}] in E[{rec.expected_hours:.2f} h]")
    result.add("recommended_completion_probability", rec.completion_probability,
               note=f"target >= {CONFIDENCE} within {DEADLINE_HOURS:g} h")

    # Structural claims of the risk model, as explicit rows:
    # 1. Spot is admitted only when it saves money in expectation, so the
    #    recommendation never costs more than the best on-demand pick.
    cheapest_ondemand = min(
        (c for c in plan.candidates if c.tier == ONDEMAND),
        key=lambda c: c.expected_dollars,
    )
    result.add("recommended_saving_vs_ondemand",
               cheapest_ondemand.expected_dollars - rec.expected_dollars,
               note="spot discount net of preemption risk (>= 0 by construction)")
    # 2. Preemptions stretch the clock: every spot candidate's expected
    #    makespan is at least its uninterrupted one.
    spot = plan.spot_candidates
    inflation = max(c.expected_hours / c.ondemand_hours for c in spot)
    result.add("max_makespan_inflation", inflation,
               note="worst E[makespan] / on-demand makespan across spot candidates")
    # 3. The Monte Carlo validates the closed form: the sampled mean must
    #    track the analytical expectation on every candidate. (The p50
    #    acceptance check lives with the default-preset CLI tests, where
    #    jobs are long enough for the median to approach the mean; short
    #    jobs are legitimately skewed by the preemption tail.)
    mean_agreement = max(
        abs(c.mc_mean_hours - c.expected_hours) / c.expected_hours for c in spot
    )
    result.add("max_mc_mean_vs_closed_form", mean_agreement,
               note="sampled mean vs analytical expectation, all spot candidates")
    # 4. Cadences are Daly's closed-form optimum sqrt(2*MTBP*C) per
    #    candidate (no menu was given), so they shrink as the fleet
    #    hazard grows with cluster size.
    cadence_by_size = {}
    for c in spot:
        cadence_by_size.setdefault(c.scenario.num_gpus, c.policy.interval_minutes)
    sizes = sorted(cadence_by_size)
    result.add("daly_cadence_minutes_x1", cadence_by_size[sizes[0]],
               note="sqrt(2*MTBP*C) at the smallest fleet")
    result.add("daly_cadence_minutes_x8", cadence_by_size[sizes[-1]],
               note="fleet hazard up -> optimal cadence down")
    result.metadata["deadline_hours"] = DEADLINE_HOURS
    result.metadata["confidence"] = CONFIDENCE
    result.metadata["excluded"] = list(plan.excluded)
    result.metadata["skipped"] = list(plan.ondemand.skipped)
    return result
