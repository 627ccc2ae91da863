"""Fig. 14 — Eq. 2 throughput-model fit and validation on the A40.

Four model x dataset combinations, each fitted over a combined
dense+sparse batch-size sweep executed through the scenario engine; the
paper reports RMSEs of 0.05 / 0.02 / 0.79 / 0.42.
"""

from __future__ import annotations

from ..core import collect_throughput_observations, fit_dense_sparse
from ..gpu import A40
from ..memory import EFFECTIVE_SEQ_LEN
from ..models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from ..scenarios import SimulationCache
from .common import ExperimentResult

PAPER_RMSE = {
    "mixtral_commonsense15k": 0.05,
    "mixtral_math14k": 0.02,
    "blackmamba_commonsense15k": 0.79,
    "blackmamba_math14k": 0.42,
}


def run(
    gpu=A40,
    form: str = "exponent",
    cache: SimulationCache | None = None,
) -> ExperimentResult:
    result = ExperimentResult("fig14", f"Eq. 2 throughput fit on {gpu.name}")
    for cfg in (MIXTRAL_8X7B, BLACKMAMBA_2_8B):
        for dataset in ("commonsense15k", "math14k"):
            seq_len = EFFECTIVE_SEQ_LEN[dataset]
            dense = collect_throughput_observations(
                cfg, gpu, seq_len, dense=True, cache=cache,
            )
            sparse = collect_throughput_observations(
                cfg, gpu, seq_len, dense=False, cache=cache,
            )
            model, rmse = fit_dense_sparse(dense, sparse, form=form)
            key = f"{cfg.family}_{dataset}"
            result.add(f"{key}_rmse", rmse, PAPER_RMSE[key])
            result.add(f"{key}_c2", model.c2)
            result.add(f"{key}_c3", model.c3)
            result.add(f"{key}_c4", model.c4,
                       note="intercept ~ batch-1 throughput")
            result.metadata[f"{key}_observations"] = [
                (o.batch_size, o.sparsity, o.throughput_qps) for o in dense + sparse
            ]
    return result
