"""Multi-GPU cost model (the paper's stated future work).

The paper closes with: "extending this model to multi-GPU systems is left
for future exploration." This module provides that extension in two
parts. An :class:`Interconnect` prices the three ring collectives every
distributed-training layout is built from —

* **all-reduce** — ``2 * (N-1)/N * payload`` per GPU on the wire (the
  data-parallel gradient sync and the tensor-parallel activation sync);
* **all-gather** / **reduce-scatter** — each half of an all-reduce,
  ``(N-1)/N * payload`` per GPU (sharded-state layouts reassemble
  parameters and scatter gradient shards with these); a ring all-reduce
  is exactly a reduce-scatter followed by an all-gather.

and :func:`estimate_from_trace` turns a cached per-device step trace into
cluster throughput under any :mod:`repro.gpu.parallelism` layout, with
one formula over the layout's tensor-parallel degree and accumulation
depth. Two consequences it captures:

1. QLoRA fine-tuning data-parallelizes almost perfectly — its gradient
   set (LoRA adapters, ~0.9 GB for Mixtral) is tiny, so the all-reduce is
   negligible next to multi-second steps.
2. Full fine-tuning of BlackMamba moves 5.6 GB of gradients per step, so
   scaling efficiency degrades visibly on PCIe-class interconnects.

Under pure data parallelism memory is unchanged per GPU (every replica
holds the full state), so the single-GPU max batch size applies per
device; tensor parallelism shards state and work instead (see the
per-shard mode of :mod:`repro.memory.estimator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..models.config import BlackMambaConfig, MixtralConfig
from ..models.params import lora_adapter_parameters, param_breakdown
from .kernels import OPTIMIZER
from .parallelism import DATA_PARALLEL, ParallelismStrategy
from .trace import StepTrace

ModelConfig = Union[MixtralConfig, BlackMambaConfig]

# Per-parameter gradient payload on the wire (fp16 gradients).
GRADIENT_BYTES_PER_PARAM = 2.0

# Activations cross TP sync points in fp16.
ACTIVATION_BYTES = 2.0

# Megatron-style sync points: one after the attention/mixer block and one
# after the FFN/MoE block, mirrored in backward.
TP_SYNCS_PER_LAYER = 2


@dataclass(frozen=True)
class Interconnect:
    """GPU-to-GPU link used by the gradient all-reduce."""

    name: str
    bandwidth_gbs: float  # effective per-GPU all-reduce bandwidth
    latency_us: float = 20.0

    def allreduce_seconds(self, payload_bytes: float, num_gpus: int) -> float:
        """Ring all-reduce time for ``payload_bytes`` across ``num_gpus``."""
        if num_gpus <= 1:
            return 0.0
        wire = 2.0 * (num_gpus - 1) / num_gpus * payload_bytes
        return wire / (self.bandwidth_gbs * 1e9) + 2 * (num_gpus - 1) * self.latency_us * 1e-6

    def allgather_seconds(self, payload_bytes: float, num_gpus: int) -> float:
        """Ring all-gather time: each GPU receives the other shards of a
        ``payload_bytes`` tensor, ``(N-1)/N * payload`` on the wire."""
        if num_gpus <= 1:
            return 0.0
        wire = (num_gpus - 1) / num_gpus * payload_bytes
        return wire / (self.bandwidth_gbs * 1e9) + (num_gpus - 1) * self.latency_us * 1e-6

    def reducescatter_seconds(self, payload_bytes: float, num_gpus: int) -> float:
        """Ring reduce-scatter time: each GPU ends with its reduced shard
        of a ``payload_bytes`` tensor — the mirror image of all-gather, so
        the cost is identical and ``reduce-scatter + all-gather`` composes
        to exactly :meth:`allreduce_seconds`."""
        return self.allgather_seconds(payload_bytes, num_gpus)


PCIE_GEN4 = Interconnect("PCIe-Gen4", bandwidth_gbs=24.0)
NVLINK = Interconnect("NVLink", bandwidth_gbs=225.0)

INTERCONNECTS: Dict[str, Interconnect] = {
    "nvlink": NVLINK,
    "pcie-gen4": PCIE_GEN4,
}


def get_interconnect(name: Union[str, Interconnect]) -> Interconnect:
    """Resolve an interconnect by registry key or display name
    (case-insensitive); :class:`Interconnect` values pass through so ad-hoc
    links participate like ad-hoc GPU specs do."""
    if isinstance(name, Interconnect):
        return name
    lowered = name.lower()
    if lowered in INTERCONNECTS:
        return INTERCONNECTS[lowered]
    for link in INTERCONNECTS.values():
        if link.name.lower() == lowered:
            return link
    raise KeyError(f"unknown interconnect {name!r}; available: {sorted(INTERCONNECTS)}")


def trainable_gradient_bytes(cfg: ModelConfig) -> float:
    """Bytes of gradients synchronized per step under the paper's recipes."""
    if isinstance(cfg, MixtralConfig):
        return GRADIENT_BYTES_PER_PARAM * lora_adapter_parameters(cfg)
    return GRADIENT_BYTES_PER_PARAM * param_breakdown(cfg).total


@dataclass
class MultiGPUEstimate:
    """Cluster throughput estimate under one parallelism layout; the
    default field values describe plain data parallelism."""

    num_gpus: int
    per_gpu_batch: int  # per-device (per-TP-group) micro-batch
    step_seconds: float  # one full optimizer step, communication included
    allreduce_seconds: float  # the data-parallel gradient sync
    queries_per_second: float
    scaling_efficiency: float  # vs num_gpus x single-GPU throughput
    tensor_parallel: int = 1
    grad_accum: int = 1
    tp_comm_seconds: float = 0.0  # activation syncs per optimizer step

    @property
    def data_parallel(self) -> int:
        """Data-parallel ways: replica groups synced by the all-reduce."""
        return self.num_gpus // self.tensor_parallel


def tp_comm_seconds_per_micro_batch(
    cfg: ModelConfig, trace: StepTrace, interconnect: Interconnect, degree: int
) -> float:
    """Activation synchronization one micro-batch pays at tensor-parallel
    ``degree``: two sync points per layer in forward, mirrored in
    backward, each a reduce-scatter + all-gather of the fp16 activations.
    Exactly 0.0 at ``degree == 1``."""
    payload = ACTIVATION_BYTES * trace.batch_size * trace.seq_len * cfg.dim
    sync = interconnect.reducescatter_seconds(
        payload, degree
    ) + interconnect.allgather_seconds(payload, degree)
    return 2 * TP_SYNCS_PER_LAYER * cfg.num_layers * sync


def estimate_from_trace(
    cfg: ModelConfig,
    trace: StepTrace,
    num_gpus: int,
    interconnect: Interconnect,
    strategy: ParallelismStrategy = DATA_PARALLEL,
) -> MultiGPUEstimate:
    """Cluster estimate from an already-simulated per-device step trace.

    With tensor-parallel degree ``t`` and accumulation depth ``k``, the
    ``num_gpus // t`` data-parallel groups each run ``k`` micro-batches
    (forward, backward and host overhead) and one optimizer update per
    step, paying ``k`` TP activation syncs and one gradient all-reduce of
    the group's ``1/t`` shard of the trainable gradients. Every replica
    runs the identical per-device step, so one trace serves all cluster
    sizes; the trace must match the layout (tensor parallelism simulates
    the sharded per-device workload).
    """
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    strategy.validate(num_gpus)
    t, k = strategy.tensor_parallel, strategy.grad_accum
    dp = num_gpus // t
    # Communication overlaps poorly with the tail of backward in naive
    # DDP over small adapter sets; model it as serialized.
    grad_comm = interconnect.allreduce_seconds(trainable_gradient_bytes(cfg) / t, dp)
    tp_comm = k * tp_comm_seconds_per_micro_batch(cfg, trace, interconnect, t)
    total = trace.total_seconds  # one walk of the kernel timings
    if k == 1:
        compute = total
    else:
        optimizer = trace.stage_seconds()[OPTIMIZER]
        compute = k * (total - optimizer) + optimizer
    step = compute + tp_comm + grad_comm
    throughput = dp * k * trace.batch_size / step
    if t == k == 1:
        # Plain data parallelism: the ratio to N single-GPU runs (the
        # trace's queries_per_second), rounded as plans have always
        # printed it.
        single = trace.batch_size / total if total > 0 else 0.0
        efficiency = throughput / (num_gpus * single) if single > 0 else 0.0
    else:
        efficiency = compute / step
    return MultiGPUEstimate(
        num_gpus=num_gpus,
        per_gpu_batch=trace.batch_size,
        step_seconds=step,
        allreduce_seconds=grad_comm,
        queries_per_second=throughput,
        scaling_efficiency=efficiency,
        tensor_parallel=t,
        grad_accum=k,
        tp_comm_seconds=tp_comm,
    )
