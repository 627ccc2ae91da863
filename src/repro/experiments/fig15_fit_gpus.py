"""Fig. 15 — Eq. 2 validation on A100-40GB, A100-80GB and H100.

The paper validates the throughput model on Mixtral-CS for three more
GPUs with RMSE <= 0.55. The A100-40GB barely fits Mixtral (free memory
~3GB), so its sweep has very few feasible batch sizes — also visible in
the paper's plot, which only spans small batches for that GPU.
"""

from __future__ import annotations

from ..core import collect_throughput_observations, fit_dense_sparse
from ..gpu import A100_40, A100_80, H100
from ..memory import EFFECTIVE_SEQ_LEN, max_batch_size
from ..models import MIXTRAL_8X7B
from ..scenarios import SimulationCache
from .common import ExperimentResult

PAPER_RMSE = {
    "A100-40GB": 0.03,
    "A100-80GB": 0.09,
    "H100-80GB": 0.55,
}


def run(cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult("fig15", "Eq. 2 throughput fit on other GPUs (Mixtral-CS)")
    seq_len = EFFECTIVE_SEQ_LEN["commonsense15k"]
    for gpu in (A100_40, A100_80, H100):
        dense = collect_throughput_observations(
            MIXTRAL_8X7B, gpu, seq_len, dense=True, cache=cache,
        )
        sparse = collect_throughput_observations(
            MIXTRAL_8X7B, gpu, seq_len, dense=False, cache=cache,
        )
        if len(dense) + len(sparse) < 3:
            result.add(f"{gpu.name}_rmse", float("nan"),
                       note="model does not fit on this GPU at this length")
            continue
        model, rmse = fit_dense_sparse(dense, sparse)
        result.add(f"{gpu.name}_rmse", rmse, PAPER_RMSE[gpu.name])
        result.add(f"{gpu.name}_max_sparse_batch", max_batch_size(MIXTRAL_8X7B, gpu, seq_len, dense=False))
        result.add(f"{gpu.name}_c2", model.c2)
    return result
