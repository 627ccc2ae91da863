"""Scenario: plan a multi-GPU fine-tune before renting a single GPU.

The paper's cost model answers "what will this fine-tune cost?" for one
GPU; the cluster subsystem answers it for fleets. This example plans the
Table IV workload (Mixtral sparse on MATH-14k x 10 epochs) three ways:

1. the unconstrained Pareto frontier — every configuration where going
   faster necessarily costs more;
2. a deadline-driven plan — the cheapest cluster that finishes overnight;
3. the interconnect tax — what PCIe costs a full-fine-tune workload that
   a QLoRA workload never pays;
4. the tensor-parallel rescue — a cell that fits no single device
   (dense Mixtral at the HellaSwag padded length) is skipped by the pure
   data-parallel sweep and *priced* by ``parallelism="auto"``, which
   shards it across a TP group (the library form of
   ``python -m repro.cluster.plan --parallelism auto --max-tp 8``);
5. a warm repeat — a second plan on the same in-memory cache simulates
   nothing (what keeps the planning service's repeated requests cheap).

Run:  python examples/plan_cluster.py
"""

from repro.cluster import ClusterPlanner
from repro.gpu import A40, H100, NVLINK, PCIE_GEN4
from repro.scenarios import SimulationCache, default_cache


def pareto_frontier() -> None:
    print("=== Pareto frontier: Mixtral sparse, MATH-14k x 10 epochs ===")
    planner = ClusterPlanner("mixtral-8x7b", dataset="math14k")
    plan = planner.plan(gpus=(A40, H100), providers=("cudo",), densities=(False,))
    for candidate in plan.frontier:
        print(
            f"  {candidate.label:<46} {candidate.hours:7.2f} h  ${candidate.dollars:7.2f}"
        )
    print("  -> every other configuration is slower AND more expensive\n")


def overnight_deadline() -> None:
    print("=== Cheapest cluster that finishes overnight (12 h) ===")
    planner = ClusterPlanner("mixtral-8x7b", dataset="math14k")
    plan = planner.plan(providers=("cudo",), densities=(False,), deadline_hours=12.0)
    assert plan.cheapest is not None
    print(f"  recommendation: {plan.cheapest.label}")
    print(
        f"  {plan.cheapest.scenario.num_gpus}x {plan.cheapest.scenario.gpu_spec.name} "
        f"-> {plan.cheapest.hours:.2f} h for ${plan.cheapest.dollars:.2f}"
    )
    single = min((c for c in plan.candidates if c.scenario.num_gpus == 1),
                 key=lambda c: c.hours)
    print(f"  (the best single GPU would take {single.hours:.2f} h)\n")


def interconnect_tax() -> None:
    print("=== The interconnect tax: QLoRA vs full fine-tuning at 8 GPUs ===")
    for model, recipe in (("mixtral-8x7b", "QLoRA adapters"),
                          ("blackmamba-2.8b", "full fine-tune")):
        planner = ClusterPlanner(model, dataset="math14k")
        plan = planner.plan(gpus=(A40,), providers=("cudo",), densities=(False,),
                            num_gpus=(8,), interconnects=(NVLINK, PCIE_GEN4))
        by_link = {c.scenario.interconnect_spec.name: c for c in plan.candidates}
        nv, pcie = by_link["NVLink"], by_link["PCIe-Gen4"]
        print(
            f"  {recipe:<16} NVLink eff {nv.estimate.scaling_efficiency:5.3f}  "
            f"PCIe eff {pcie.estimate.scaling_efficiency:5.3f}  "
            f"PCIe premium ${pcie.dollars - nv.dollars:6.2f}"
        )
    print("  -> Takeaway: adapter-only sync makes QLoRA interconnect-insensitive\n")


def tensor_parallel_rescue() -> None:
    print("=== Tensor parallelism prices what data parallelism must skip ===")
    planner = ClusterPlanner("mixtral-8x7b", dataset="hellaswag")
    cell = dict(gpus=(A40,), providers=("cudo",), densities=(True,))
    dp = planner.plan(parallelism="dp", **cell)
    print(f"  dp:   {len(dp.candidates)} candidates — {dp.skipped[0]}")
    auto = planner.plan(parallelism="auto", **cell, grad_accums=(1, 4))
    assert auto.cheapest is not None
    best = auto.cheapest
    print(f"  auto: {len(auto.candidates)} candidates; cheapest {best.label}")
    print(
        f"        tp{best.scenario.tensor_parallel} x "
        f"dp{best.scenario.strategy_spec.data_parallel_ways(best.scenario.num_gpus)}"
        f" shards the weights into fitting -> "
        f"{best.hours:.2f} h for ${best.dollars:.2f}"
    )
    print("  -> unfittable cells are now planner candidates, not skip reasons\n")


def warm_repeat() -> None:
    print("=== A warm repeat: the second plan simulates nothing ===")
    cache = SimulationCache()
    planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
    planner.plan(providers=("cudo",), densities=(False,))
    cold = cache.stats().simulations
    print(f"  cold plan:  {cold} simulations")
    planner.plan(providers=("cudo",), densities=(False,))
    print(f"  warm plan:  {cache.stats().simulations - cold} simulations")
    print("  -> one long-lived process (python -m repro.service.serve) keeps "
          "every later request warm\n")


if __name__ == "__main__":
    pareto_frontier()
    overnight_deadline()
    interconnect_tax()
    tensor_parallel_rescue()
    warm_repeat()
    stats = default_cache().stats()
    print(f"(scenario cache: {stats.hits} hits / {stats.misses} misses — "
          f"every cluster size reused its replica's trace)")
