"""Experiment suite (S13): one module per paper table/figure.

Every module exposes ``run(...) -> ExperimentResult``. ``ALL_EXPERIMENTS``
maps each paper artifact's id to its module; ``python -m
repro.experiments.report`` runs them and prints the measured-vs-paper
tables, and ``tests/test_experiments.py`` pins each artifact's headline
claims.
"""

from . import (
    cluster_plan,
    fig2_seqlen,
    fig3_accuracy,
    fig4_stages,
    fig5_layers,
    fig6_kernels,
    fig8_throughput,
    fig9_sm,
    fig10_dram,
    fig11_loadbalance,
    fig13_projection,
    fig14_fit_a40,
    fig15_fit_gpus,
    seqlen_sensitivity,
    spot_plan,
    table1_models,
    table2_datasets,
    table3_maxbatch,
    table4_cost,
)
from .common import ExperimentResult, ExperimentRow

ALL_EXPERIMENTS = {
    "table1": table1_models,
    "table2": table2_datasets,
    "fig2": fig2_seqlen,
    "fig3": fig3_accuracy,
    "table3": table3_maxbatch,
    "fig4": fig4_stages,
    "fig5": fig5_layers,
    "fig6": fig6_kernels,
    "fig8": fig8_throughput,
    "fig9": fig9_sm,
    "fig10": fig10_dram,
    "fig11": fig11_loadbalance,
    "fig13": fig13_projection,
    "fig14": fig14_fit_a40,
    "fig15": fig15_fit_gpus,
    "table4": table4_cost,
    "seqlen": seqlen_sensitivity,
    "cluster": cluster_plan,
    "spot": spot_plan,
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult", "ExperimentRow"]
