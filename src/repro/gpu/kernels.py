"""Kernel descriptions and per-kind execution profiles.

A :class:`Kernel` is a pure work description — floating-point operations,
bytes moved, and shape hints — produced by the workload builders in
:mod:`repro.gpu.workload`. The :class:`KindProfile` table encodes how each
kernel *class* behaves on a GPU:

* ``compute_eff`` — achievable fraction of the relevant peak throughput at
  full occupancy (tensor-core matmuls reach ~85%, elementwise ~60%, ...).
* ``mem_eff`` — achievable fraction of DRAM bandwidth.
* ``uses_tensor_cores`` — whether the compute bound uses FP16 tensor-core
  peak or the FP32/ALU peak.
* ``rows_half_sat`` — matmul efficiency grows with the GEMM M-dimension
  (rows per expert): small-batch fine-tuning under-fills tensor-core
  tiles. Efficiency scales as ``m / (m + rows_half_sat)``, which is what
  produces the paper's Fig. 9 "SM utilization rises with batch size" and
  the throughput saturation behind Eq. 2's logarithmic shape.
* ``issue_floor`` — minimum SM busy fraction for kernels that saturate
  instruction-issue pipelines while waiting on memory. NF4 dequantization
  is the canonical case: Fig. 9 shows it at high SM utilization regardless
  of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict


class KernelKind(Enum):
    MATMUL = "matmul"
    DEQUANT = "dequant"
    ELEMENTWISE = "elementwise"
    SOFTMAX = "softmax"
    TOPK = "topk"
    NORM = "norm"
    ATTENTION = "attention"
    SCAN = "scan"
    OPTIMIZER = "optimizer"


@dataclass(frozen=True)
class KindProfile:
    """Efficiency characteristics of one kernel class."""

    compute_eff: float
    mem_eff: float
    uses_tensor_cores: bool = False
    rows_half_sat: float = 0.0  # 0 disables row-saturation scaling
    issue_floor: float = 0.0


# Values marked (fitted) were calibrated once against the paper's measured
# A40/A100/H100 throughput and stage shares. No code in the repo
# reproduces that calibration yet.
KIND_PROFILES: Dict[KernelKind, KindProfile] = {
    KernelKind.MATMUL: KindProfile(
        compute_eff=0.85, mem_eff=0.80, uses_tensor_cores=True, rows_half_sat=448.0  # (fitted)
    ),
    KernelKind.DEQUANT: KindProfile(compute_eff=0.50, mem_eff=0.75, issue_floor=0.78),
    KernelKind.ELEMENTWISE: KindProfile(compute_eff=0.60, mem_eff=0.85, issue_floor=0.30),
    KernelKind.SOFTMAX: KindProfile(compute_eff=0.40, mem_eff=0.70, issue_floor=0.20),
    KernelKind.TOPK: KindProfile(compute_eff=0.25, mem_eff=0.50, issue_floor=0.15),
    KernelKind.NORM: KindProfile(compute_eff=0.45, mem_eff=0.80, issue_floor=0.25),
    KernelKind.ATTENTION: KindProfile(
        compute_eff=0.70, mem_eff=0.80, uses_tensor_cores=True, rows_half_sat=256.0
    ),
    KernelKind.SCAN: KindProfile(compute_eff=0.30, mem_eff=0.60, issue_floor=0.35),
    KernelKind.OPTIMIZER: KindProfile(compute_eff=0.50, mem_eff=0.65, issue_floor=0.20),  # (fitted)
}

FORWARD = "forward"
BACKWARD = "backward"
OPTIMIZER = "optimizer"

STAGES = (FORWARD, BACKWARD, OPTIMIZER)


@dataclass(frozen=True)
class Kernel:
    """One launched kernel: pure work description, no timing.

    Attributes
    ----------
    name:
        Display name following the paper's Fig. 6 vocabulary
        (``matmul(w1)``, ``w1_dequant``, ``topk``, ...).
    kind:
        Execution class used to look up the :class:`KindProfile`.
    flops:
        Floating-point operations (multiply-accumulate counted as 2).
    bytes:
        Total DRAM traffic, reads plus writes.
    rows:
        GEMM M-dimension hint (tokens per expert) for row-saturation
        scaling; 0 for non-matmul kernels.
    layer:
        Layer category for the Fig. 5 breakdown (``moe``, ``attention``,
        ``mamba``, ``norm``...).
    stage:
        ``forward`` / ``backward`` / ``optimizer`` (Fig. 4 breakdown).
    count:
        Number of identical launches folded into this record (e.g. one
        per decoder layer).
    eff_scale:
        Extra multiplier on achievable compute efficiency. Used to model
        the measured slowness of NF4-quantized GEMMs (bitsandbytes-style
        kernels run well below plain fp16 GEMM efficiency).
    """

    name: str
    kind: KernelKind
    flops: float
    bytes: float
    rows: float = 0.0
    layer: str = "other"
    stage: str = FORWARD
    count: int = 1
    eff_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes < 0:
            raise ValueError(f"kernel {self.name}: negative work ({self.flops}, {self.bytes})")
        if self.stage not in STAGES:
            raise ValueError(f"kernel {self.name}: unknown stage {self.stage!r}")
        if self.count < 1:
            raise ValueError(f"kernel {self.name}: count must be >= 1")

    @property
    def profile(self) -> KindProfile:
        return KIND_PROFILES[self.kind]
