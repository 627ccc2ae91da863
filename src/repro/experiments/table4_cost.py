"""Table IV — estimated dollar cost of fine-tuning Mixtral (sparse).

Note on the paper's setup: Table IV is captioned "on GS" but its numbers
are only consistent with the MATH-14k query count (140k queries over 10
epochs at ~1 q/s is ~38h = ~$30 on the A40; the GS set's 1.3k queries
would cost ~$3). We therefore reproduce it as: batch size and throughput
at the GS sequence length, total queries from MATH-14k x 10 epochs. The
OpenOrca projection scales the same model to a 2M-query corpus.

The cost model runs its Eq. 2 calibration sweeps through the shared
simulation cache.
"""

from __future__ import annotations

from ..cloud import DEFAULT_CATALOG
from ..core import FineTuningCostModel, dataset_num_queries
from ..gpu import A40, A100_80, H100
from ..models import MIXTRAL_8X7B
from ..scenarios import SimulationCache
from .common import ExperimentResult

PAPER = {
    "A40": {"mbs": 4, "tput": 1.01, "price": 0.79, "cost": 32.7},
    "A100-80GB": {"mbs": 17, "tput": 2.74, "price": 1.67, "cost": 25.4},
    "H100-80GB": {"mbs": 17, "tput": 4.90, "price": 2.10, "cost": 17.9},
}
PAPER_OPENORCA_COST = 3460.0
EPOCHS = 10
GPU_CANDIDATES = (A40, A100_80, H100)


def run(cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult("table4", "Cost of fine-tuning Mixtral (sparse)")
    cost_model = FineTuningCostModel.for_dataset(
        MIXTRAL_8X7B, "gsm8k", dense=False, cache=cache
    )
    num_queries = dataset_num_queries("math14k")
    estimates = cost_model.rank_gpus(GPU_CANDIDATES, num_queries, epochs=EPOCHS)
    for estimate in estimates:
        paper = PAPER[estimate.gpu_name]
        result.add(f"{estimate.gpu_name}_mbs", estimate.max_batch_size, paper["mbs"])
        result.add(f"{estimate.gpu_name}_tput", estimate.throughput_qps, paper["tput"])
        result.add(f"{estimate.gpu_name}_price", estimate.dollars_per_hour, paper["price"])
        result.add(f"{estimate.gpu_name}_cost", estimate.dollars, paper["cost"])
    result.add("cheapest_gpu", estimates[0].gpu_name, "H100-80GB",
               note="paper: H100 is the most cost-effective option")

    # OpenOrca (2M queries) projection on the H100.
    orca_model = FineTuningCostModel.for_dataset(
        MIXTRAL_8X7B, "openorca", dense=False, cache=cache
    )
    orca = orca_model.estimate(H100, dataset_num_queries("openorca"), epochs=EPOCHS)
    result.add("openorca_h100_cost", orca.dollars, PAPER_OPENORCA_COST)
    result.metadata["catalog_providers"] = DEFAULT_CATALOG.providers()
    return result
