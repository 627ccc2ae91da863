"""Cluster planning — the multi-GPU extension the paper leaves open.

Not a paper artifact: the paper closes with "extending this model to
multi-GPU systems is left for future exploration." This experiment runs
that exploration through the cluster subsystem for the Table IV workload
(Mixtral sparse on MATH-14k x 10 epochs) and reports the Pareto frontier
of (wall-clock, dollars), the planner's recommendation under a 24-hour
deadline, and the scaling-efficiency contrast between interconnects.
Reference values are the model's own structural claims, not published
numbers.
"""

from __future__ import annotations

from ..cluster import ClusterPlanner
from ..gpu import A40, H100
from ..scenarios import SimulationCache
from .common import ExperimentResult

DEADLINE_HOURS = 24.0
EPOCHS = 10


def run(cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult("cluster", "Cluster plan: Mixtral sparse, MATH-14k (Pareto)")
    planner = ClusterPlanner(
        "mixtral-8x7b", dataset="math14k", epochs=EPOCHS, cache=cache,
    )
    plan = planner.plan(
        gpus=(A40, H100),
        providers=("cudo",),
        densities=(False,),
        deadline_hours=DEADLINE_HOURS,
    )
    result.add("num_candidates", len(plan.candidates))
    result.add("num_feasible", len(plan.feasible))
    result.add("frontier_size", len(plan.frontier))
    for i, candidate in enumerate(plan.frontier):
        result.add(f"frontier_{i}_{candidate.label}_hours", candidate.hours)
        result.add(f"frontier_{i}_{candidate.label}_dollars", candidate.dollars)
    assert plan.cheapest is not None and plan.fastest is not None
    result.add("cheapest_feasible", plan.cheapest.label,
               note=f"${plan.cheapest.dollars:.2f} in {plan.cheapest.hours:.2f} h")
    result.add("fastest_feasible", plan.fastest.label,
               note=f"{plan.fastest.hours:.2f} h for ${plan.fastest.dollars:.2f}")

    # Structural claims of the data-parallel model, as explicit rows:
    # the cheapest GPU's scaling behavior at 8x vs 1x on NVLink.
    gpu = plan.cheapest.scenario.gpu_spec

    def candidate_at(n: int):
        return next(
            c for c in plan.candidates
            if c.scenario.gpu_spec == gpu and c.scenario.num_gpus == n
            and c.scenario.interconnect_spec.name == "NVLink"
        )

    nvlink8, single = candidate_at(8), candidate_at(1)
    result.add("qlora_x8_nvlink_efficiency", nvlink8.estimate.scaling_efficiency,
               note="adapter-only all-reduce: near-perfect scaling")
    result.add("x8_cost_premium_over_x1", nvlink8.dollars / single.dollars,
               note="multi-GPU buys time, not money (premium ~1.0)")

    # Parallelism-strategy claims: dense Mixtral at the HellaSwag padded
    # length fits no single A40, so pure data parallelism must skip the
    # cell — tensor parallelism shards it into fitting and prices it.
    tp_planner = ClusterPlanner(
        "mixtral-8x7b", dataset="hellaswag", epochs=EPOCHS, cache=cache,
    )
    tp_kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(True,))
    dp_plan = tp_planner.plan(parallelism="dp", **tp_kwargs)
    auto_plan = tp_planner.plan(parallelism="auto", **tp_kwargs)
    result.add("dense_hellaswag_dp_candidates", len(dp_plan.candidates),
               note="pure DP cannot fit the cell (skipped)")
    result.add("dense_hellaswag_auto_candidates", len(auto_plan.candidates),
               note="TP degrees shard the cell into fitting")
    assert auto_plan.cheapest is not None
    result.add("dense_hellaswag_auto_cheapest", auto_plan.cheapest.label,
               note=f"${auto_plan.cheapest.dollars:.2f} in "
                    f"{auto_plan.cheapest.hours:.2f} h")
    result.metadata["deadline_hours"] = DEADLINE_HOURS
    result.metadata["skipped"] = list(plan.skipped)
    result.metadata["dense_hellaswag_dp_skipped"] = list(dp_plan.skipped)
    return result
