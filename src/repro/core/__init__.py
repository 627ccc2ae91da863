"""The paper's primary contribution (S11): analytical fine-tuning cost model.

* :class:`BatchSizeModel` — Eq. 1, max batch size from GPU memory, model
  memory, sequence length and MoE sparsity.
* :class:`ThroughputModel` — Eq. 2, logarithmic batch-size->throughput.
* :class:`FineTuningCostModel` — the full pipeline: max batch size ->
  throughput -> hours -> dollars (Table IV and the OpenOrca projection).

Every name resolves on first access (:mod:`repro.lazy`), so the
planners, which read only ``repro.core.cost``, never load the fit code.
"""

from ..lazy import lazy_exports

#: Name → submodule; every name resolves on first access.
_LAZY = {
    "BatchSizeModel": ".batchsize",
    "BatchSizeObservation": ".batchsize",
    "PAPER_BATCH_COEFFICIENTS": ".batchsize",
    "CostEstimate": ".cost",
    "FineTuningCostModel": ".cost",
    "dataset_num_queries": ".cost",
    "wall_clock_hours": ".cost",
    "collect_batch_size_observations": ".fitting",
    "collect_throughput_observations": ".fitting",
    "observations_from_sweep": ".fitting",
    "ThroughputModel": ".throughput",
    "ThroughputObservation": ".throughput",
    "fit_dense_sparse": ".throughput",
}

__all__ = [
    "BatchSizeModel",
    "BatchSizeObservation",
    "CostEstimate",
    "FineTuningCostModel",
    "PAPER_BATCH_COEFFICIENTS",
    "ThroughputModel",
    "ThroughputObservation",
    "collect_batch_size_observations",
    "collect_throughput_observations",
    "dataset_num_queries",
    "fit_dense_sparse",
    "observations_from_sweep",
    "wall_clock_hours",
]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
