"""Multi-GPU collectives cost model (the paper's stated future work).

The paper closes with: "extending this model to multi-GPU systems is left
for future exploration." This module provides the communication substrate
for that extension: an :class:`Interconnect` prices the three ring
collectives every distributed-training layout is built from —

* **all-reduce** — ``2 * (N-1)/N * payload`` per GPU on the wire (the
  data-parallel gradient sync and the tensor-parallel activation sync);
* **all-gather** / **reduce-scatter** — each half of an all-reduce,
  ``(N-1)/N * payload`` per GPU (sharded-state layouts reassemble
  parameters and scatter gradient shards with these); a ring all-reduce
  is exactly a reduce-scatter followed by an all-gather.

The :mod:`repro.gpu.parallelism` strategy classes consume these
collectives to turn a cached per-device step trace into cluster-level
throughput. Two consequences the data-parallel model captures:

1. QLoRA fine-tuning data-parallelizes almost perfectly — its gradient
   set (LoRA adapters, ~0.9 GB for Mixtral) is tiny, so the all-reduce is
   negligible next to multi-second steps.
2. Full fine-tuning of BlackMamba moves 5.6 GB of gradients per step, so
   scaling efficiency degrades visibly on PCIe-class interconnects.

Under pure data parallelism memory is unchanged per GPU (every replica
holds the full state), so the single-GPU max batch size applies per
device; tensor parallelism shards state and work instead (see
:mod:`repro.gpu.parallelism` and the per-shard mode of
:mod:`repro.memory.estimator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..models.config import BlackMambaConfig, MixtralConfig
from ..models.params import lora_adapter_parameters, param_breakdown
from .simulator import GPUSimulator, SoftwareOverhead
from .specs import GPUSpec

ModelConfig = Union[MixtralConfig, BlackMambaConfig]

# Per-parameter gradient payload on the wire (fp16 gradients).
GRADIENT_BYTES_PER_PARAM = 2.0


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
    """Cluster throughput estimate under one parallelism layout.

    The default field values describe pure data parallelism, so
    estimates built before the strategy layer existed compare equal to
    today's :class:`~repro.gpu.parallelism.DataParallel` output.
    """

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


def estimate_from_trace(cfg: ModelConfig, trace, num_gpus: int,
                        interconnect: Interconnect,
                        strategy=None) -> MultiGPUEstimate:
    """Cluster estimate from an already-simulated per-device step trace.

    Without a ``strategy`` (or with the default data-parallel one) this
    is the original data-parallel model, bit for bit: every replica runs
    the identical per-device step, so one trace serves all cluster sizes
    — the cluster layer exploits this to scale a sweep from 1 to N GPUs
    without re-simulating the replica. A non-default
    :class:`~repro.gpu.parallelism.ParallelismStrategy` dispatches to its
    own collectives math (and expects the trace matching its layout —
    sharded for tensor parallelism).
    """
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    if strategy is not None and not strategy.is_default:
        return strategy.estimate(cfg, trace, num_gpus, interconnect)
    comm = interconnect.allreduce_seconds(trainable_gradient_bytes(cfg), num_gpus)
    # Communication overlaps poorly with the tail of backward in naive
    # DDP over small adapter sets; model it as serialized.
    step = trace.total_seconds + comm
    throughput = num_gpus * trace.batch_size / step
    single = trace.queries_per_second
    efficiency = throughput / (num_gpus * single) if single > 0 else 0.0
    return MultiGPUEstimate(
        num_gpus=num_gpus,
        per_gpu_batch=trace.batch_size,
        step_seconds=step,
        allreduce_seconds=comm,
        queries_per_second=throughput,
        scaling_efficiency=efficiency,
    )


class DataParallelSimulator:
    """Data-parallel fine-tuning on ``num_gpus`` identical devices."""

    def __init__(
        self,
        gpu: GPUSpec,
        interconnect: Interconnect = NVLINK,
        overheads: Optional[Dict[str, SoftwareOverhead]] = None,
    ) -> None:
        self.gpu = gpu
        self.interconnect = interconnect
        self._single = GPUSimulator(gpu, overheads=overheads)

    def estimate(
        self,
        cfg: ModelConfig,
        per_gpu_batch: int,
        seq_len: int,
        num_gpus: int,
        dense: bool = False,
        **overrides,
    ) -> MultiGPUEstimate:
        if num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
        trace = self._single.simulate_step(cfg, per_gpu_batch, seq_len, dense=dense, **overrides)
        return estimate_from_trace(cfg, trace, num_gpus, self.interconnect)


def multi_gpu_cost_dollars(
    estimate: MultiGPUEstimate,
    num_queries: int,
    epochs: int,
    dollars_per_gpu_hour: float,
) -> float:
    """Total rental cost: N GPUs for the (shorter) wall-clock duration."""
    if estimate.queries_per_second <= 0:
        return float("inf")
    hours = num_queries * epochs / estimate.queries_per_second / 3600.0
    return hours * dollars_per_gpu_hour * estimate.num_gpus
