"""Table III — maximum batch sizes on the A40 for all model/dataset/sparsity
combinations, enumerated as a scenario grid over the memory oracle."""

from __future__ import annotations

from ..gpu import A40
from ..memory import max_batch_size_for_dataset
from ..models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from ..scenarios import ScenarioGrid
from .common import ExperimentResult

PAPER = {
    ("mixtral", "commonsense15k", True): 2,
    ("mixtral", "commonsense15k", False): 8,
    ("mixtral", "math14k", True): 1,
    ("mixtral", "math14k", False): 3,
    ("blackmamba", "commonsense15k", True): 6,
    ("blackmamba", "commonsense15k", False): 20,
    ("blackmamba", "math14k", True): 2,
    ("blackmamba", "math14k", False): 8,
}


def grid(gpu=A40) -> ScenarioGrid:
    """Every Table III cell; the batch axis is degenerate because the
    oracle determines the batch size."""
    return ScenarioGrid.product(
        models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B),
        gpus=(gpu,),
        datasets=("commonsense15k", "math14k"),
        dense=(True, False),
    )


def run() -> ExperimentResult:
    result = ExperimentResult("table3", "Maximum batch size on A40 (48GB)")
    for scenario in grid():
        cfg = scenario.config
        label = f"{cfg.family}_{scenario.dataset}_{'dense' if scenario.dense else 'sparse'}"
        measured = max_batch_size_for_dataset(
            cfg, scenario.gpu_spec, scenario.dataset, dense=scenario.dense
        )
        result.add(label, measured, PAPER[(cfg.family, scenario.dataset, scenario.dense)])
    return result
