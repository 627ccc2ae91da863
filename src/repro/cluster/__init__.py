"""Cluster planning subsystem — multi-GPU scenarios on the scenario engine.

The paper leaves multi-GPU systems "for future exploration"; this package
explores them with the same machinery the single-GPU reproduction uses:

* :class:`ClusterScenario` — a frozen, hashable scenario extended with
  ``num_gpus`` and ``interconnect``. Its inherited cache key excludes both
  (the per-device step is identical on every replica), so the
  :class:`~repro.scenarios.cache.SimulationCache` shares one replica trace
  across all cluster sizes — scaling a sweep 1 -> 8 GPUs never
  re-simulates.
* :class:`ClusterPlanner` — sweeps GPUs x providers x cluster sizes x
  interconnects x densities, applies the data-parallel all-reduce model
  and the cost projections, and returns the Pareto frontier of
  (wall-clock, dollars) plus the cheapest/fastest configurations meeting
  a deadline and/or budget.
* ``python -m repro.cluster.plan`` — the pre-hoc "what will this
  fine-tune cost?" CLI, with ``--json`` mirroring the report runner.
"""

from ..scenarios import ScenarioGrid, register_preset
from .planner import (
    ClusterCandidate,
    ClusterPlan,
    ClusterPlanner,
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    pareto_frontier,
)
from .scenario import ClusterScenario, cluster_product

__all__ = [
    "ClusterCandidate",
    "ClusterPlan",
    "ClusterPlanner",
    "ClusterScenario",
    "DEFAULT_INTERCONNECTS",
    "DEFAULT_MAX_TP",
    "DEFAULT_NUM_GPUS",
    "PARALLELISM_MODES",
    "cluster_product",
    "pareto_frontier",
]


def _cluster_scaling_grid() -> ScenarioGrid:
    """The planner's default scaling sweep: Mixtral QLoRA vs BlackMamba
    full fine-tuning on the A40, both interconnects, 1-8 GPUs — the grid
    behind the subsystem's headline (adapter sync is near-free, full-model
    sync is not)."""
    from ..models.config import BLACKMAMBA_2_8B, MIXTRAL_8X7B

    return cluster_product(
        models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B),
        gpus=("A40",),
        batch_sizes=(4,),
        seq_lens=(128,),
        num_gpus=DEFAULT_NUM_GPUS,
        interconnects=DEFAULT_INTERCONNECTS,
    )


def _tensor_parallel_scaling_grid() -> ScenarioGrid:
    """The strategy layer's headline sweep: dense Mixtral at the
    HellaSwag padded length on the A40 — a cell pure data parallelism
    cannot fit at all — across the tensor-parallel degrees that shard it
    into fitting, both interconnects, pure TP and hybrid TP x DP. Every
    cluster size at one degree shares that degree's sharded trace, so
    the grid simulates one trace per TP degree."""
    from ..memory.estimator import EFFECTIVE_SEQ_LEN
    from ..models.config import MIXTRAL_8X7B

    return cluster_product(
        models=(MIXTRAL_8X7B,),
        gpus=("A40",),
        batch_sizes=(1,),
        seq_lens=(EFFECTIVE_SEQ_LEN["hellaswag"],),
        dense=(True,),
        num_gpus=DEFAULT_NUM_GPUS,
        interconnects=DEFAULT_INTERCONNECTS,
        strategies=("tp2", "tp4", "tp8"),
    )


# Idempotent across reloads, like the experiment presets.
register_preset("cluster-scaling", _cluster_scaling_grid, overwrite=True)
register_preset("tensor-parallel-scaling", _tensor_parallel_scaling_grid, overwrite=True)
