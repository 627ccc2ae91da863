"""GPU execution simulator (substrate S8) — the paper's hardware stand-in."""

from .kernels import BACKWARD, FORWARD, KIND_PROFILES, Kernel, KernelKind, KindProfile, OPTIMIZER, STAGES
from .roofline import (
    COMPUTE_BOUND,
    KernelTiming,
    MEMORY_BOUND,
    OVERHEAD_BOUND,
    time_kernel,
    time_kernels,
    time_weighted_dram,
    time_weighted_sm,
)
from .multigpu import (
    INTERCONNECTS,
    Interconnect,
    MultiGPUEstimate,
    NVLINK,
    PCIE_GEN4,
    estimate_from_trace,
    get_interconnect,
    trainable_gradient_bytes,
)
from .parallelism import (
    DATA_PARALLEL,
    DataParallel,
    ParallelismStrategy,
    TensorParallel,
    get_strategy,
    tp_degrees,
)
from .simulator import DEFAULT_OVERHEADS, GPUSimulator, SoftwareOverhead
from .specs import A40, A100_40, A100_80, GPU_REGISTRY, GPUSpec, H100, get_gpu
from .trace import StepTrace
from .workload import blackmamba_step_kernels, experts_touched, mixtral_step_kernels

__all__ = [
    "A40",
    "A100_40",
    "A100_80",
    "BACKWARD",
    "COMPUTE_BOUND",
    "DATA_PARALLEL",
    "DEFAULT_OVERHEADS",
    "DataParallel",
    "FORWARD",
    "INTERCONNECTS",
    "Interconnect",
    "MultiGPUEstimate",
    "NVLINK",
    "PCIE_GEN4",
    "ParallelismStrategy",
    "TensorParallel",
    "estimate_from_trace",
    "get_interconnect",
    "get_strategy",
    "tp_degrees",
    "trainable_gradient_bytes",
    "GPU_REGISTRY",
    "GPUSimulator",
    "GPUSpec",
    "H100",
    "KIND_PROFILES",
    "Kernel",
    "KernelKind",
    "KernelTiming",
    "KindProfile",
    "MEMORY_BOUND",
    "OPTIMIZER",
    "OVERHEAD_BOUND",
    "STAGES",
    "SoftwareOverhead",
    "StepTrace",
    "blackmamba_step_kernels",
    "experts_touched",
    "get_gpu",
    "mixtral_step_kernels",
    "time_kernel",
    "time_kernels",
    "time_weighted_dram",
    "time_weighted_sm",
]
