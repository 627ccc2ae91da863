"""Fig. 8 — query throughput across models, datasets and batch sizes.

The measurement grid is expressed as a :class:`ScenarioGrid`: the full
model x dataset x density x batch product narrowed to the cells the
paper actually plots, executed through the shared simulation cache.
"""

from __future__ import annotations

from typing import Dict

from ..gpu import A40
from ..models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from ..scenarios import ScenarioGrid, SimulationCache, SweepRunner
from .common import ExperimentResult

# Paper values read off Fig. 8 (queries/second).
PAPER: Dict[str, float] = {
    "mixtral_commonsense15k_D1": 0.3,
    "mixtral_commonsense15k_D2": 0.5,
    "mixtral_commonsense15k_S1": 0.3,
    "mixtral_commonsense15k_S2": 0.7,
    "mixtral_commonsense15k_S8": 1.7,
    "mixtral_math14k_D1": 0.3,
    "mixtral_math14k_S1": 0.3,
    "mixtral_math14k_S3": 1.0,
    "blackmamba_commonsense15k_D1": 2.3,
    "blackmamba_commonsense15k_D6": 7.9,
    "blackmamba_commonsense15k_S1": 2.4,
    "blackmamba_commonsense15k_S6": 10.5,
    "blackmamba_commonsense15k_S20": 14.9,
    "blackmamba_math14k_D1": 2.2,
    "blackmamba_math14k_D2": 5.3,
    "blackmamba_math14k_S1": 2.2,
    "blackmamba_math14k_S2": 6.5,
    "blackmamba_math14k_S8": 11.6,
}

# The paper uses the datasets' real (median) lengths for throughput runs;
# scenarios resolve them from the dataset registry (Table II medians).
THROUGHPUT_SEQ_LEN = {"commonsense15k": 79, "math14k": 174}


def grid(gpu=A40) -> ScenarioGrid:
    """The Fig. 8 measurement grid: full product, narrowed to the plotted
    cells. Grid order equals the figure's row order."""
    result = ScenarioGrid.product(
        models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B),
        gpus=(gpu,),
        datasets=("commonsense15k", "math14k"),
        dense=(True, False),
        batch_sizes=(1, 2, 3, 6, 8, 20),
    ).filter(lambda s: s.label() in PAPER)
    # Every PAPER cell must survive the product+filter; a new reading
    # whose batch size is missing from the axis would otherwise be
    # dropped silently (explicit raise so `python -O` keeps the guard).
    if len(result) != len(PAPER):
        missing = sorted(set(PAPER) - set(result.labels()))
        raise ValueError(f"PAPER cells missing from the fig8 grid axes: {missing}")
    return result


def run(gpu=A40, cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult("fig8", "Fine-tuning throughput (queries/second)")
    runner = SweepRunner(cache=cache)
    for point in runner.run(grid(gpu)):
        result.add(point.label, point.queries_per_second, PAPER.get(point.label))
    # Headline claims as explicit rows.
    sparse2 = result.row("mixtral_commonsense15k_S2").measured
    dense2 = result.row("mixtral_commonsense15k_D2").measured
    result.add("mixtral_CS_sparse_over_dense_b2", sparse2 / dense2, 0.7 / 0.5,
               note="sparse beats dense at equal batch size")
    s1 = result.row("mixtral_commonsense15k_S1").measured
    s8 = result.row("mixtral_commonsense15k_S8").measured
    result.add("mixtral_CS_s8_speedup_vs_s1", s8 / s1, 1.7 / 0.35,
               note="sub-linear scaling: 8x batch -> <8x throughput")
    return result
