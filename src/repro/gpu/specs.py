"""GPU hardware specifications.

The paper profiles on an NVIDIA A40 and validates its analytical model on
A100-40GB, A100-80GB and H100. These specs drive the roofline kernel
model: peak tensor-core FP16 throughput bounds compute-limited kernels,
DRAM bandwidth bounds memory-limited kernels, FP32/ALU throughput bounds
elementwise kernels, and SM count sets the occupancy scale.

Published numbers (NVIDIA datasheets, dense — not sparsity-doubled):

========== ====== ========== ======= ========== ==========
GPU        Memory Bandwidth  SMs     FP16 TC    FP32
========== ====== ========== ======= ========== ==========
A40        48 GB  696 GB/s   84      149.7 TF   37.4 TF
A100-40GB  40 GB  1555 GB/s  108     312 TF     19.5 TF
A100-80GB  80 GB  1935 GB/s  108     312 TF     19.5 TF
H100-80GB  80 GB  3350 GB/s  132     989.4 TF   66.9 TF
========== ====== ========== ======= ========== ==========
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class GPUSpec:
    """Hardware parameters of one GPU model."""

    name: str
    memory_gb: float  # capacity in decimal GB (paper convention)
    mem_bandwidth_gbs: float  # peak DRAM bandwidth, GB/s
    sm_count: int
    fp16_tflops: float  # dense tensor-core peak
    fp32_tflops: float  # CUDA-core peak (bounds elementwise/ALU kernels)
    kernel_overhead_us: float = 6.0  # launch + sync latency per kernel

    @property
    def peak_fp16_flops(self) -> float:
        return self.fp16_tflops * 1e12

    @property
    def peak_fp32_flops(self) -> float:
        return self.fp32_tflops * 1e12

    @property
    def peak_bandwidth(self) -> float:
        return self.mem_bandwidth_gbs * 1e9

    def with_memory(self, memory_gb: float, name: str = "") -> "GPUSpec":
        """A hypothetical variant with different capacity (Fig. 13's
        100GB/120GB future-GPU projection)."""
        return replace(self, memory_gb=memory_gb, name=name or f"{self.name}-{memory_gb:.0f}GB")


A40 = GPUSpec("A40", 48.0, 696.0, 84, 149.7, 37.4)
A100_40 = GPUSpec("A100-40GB", 40.0, 1555.0, 108, 312.0, 19.5)
A100_80 = GPUSpec("A100-80GB", 80.0, 1935.0, 108, 312.0, 19.5)
H100 = GPUSpec("H100-80GB", 80.0, 3350.0, 132, 989.4, 66.9)

GPU_REGISTRY: Dict[str, GPUSpec] = {
    spec.name: spec for spec in (A40, A100_40, A100_80, H100)
}


def get_gpu(name: str) -> GPUSpec:
    if name not in GPU_REGISTRY:
        raise KeyError(f"unknown GPU {name!r}; available: {sorted(GPU_REGISTRY)}")
    return GPU_REGISTRY[name]
