"""Observation collection for fitting the analytical models.

The paper sweeps batch sizes on real hardware to collect throughput
points and probes max batch sizes across GPUs; here the scenario engine
(grids over the memoized GPU simulator) and the memory oracle play the
role of the hardware. These helpers produce the observation lists
consumed by :class:`BatchSizeModel.fit` and :class:`ThroughputModel.fit`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..gpu.specs import GPUSpec
from ..memory.estimator import max_batch_size
from ..models.config import BlackMambaConfig, MixtralConfig
from ..models.params import model_memory_gb
from ..scenarios import Scenario, ScenarioGrid, SimulationCache, SweepPoint, SweepRunner
from .batchsize import BatchSizeObservation
from .throughput import ThroughputObservation

ModelConfig = Union[MixtralConfig, BlackMambaConfig]


def collect_batch_size_observations(
    cfg: ModelConfig,
    gpus: Sequence[GPUSpec],
    seq_lens: Sequence[int] = (64, 128, 256, 512),
    sparsities: Optional[Sequence[bool]] = None,
) -> List[BatchSizeObservation]:
    """Probe the memory oracle across GPUs/sequence lengths/sparsity.

    ``sparsities`` is given as dense flags; default covers both dense and
    sparse fine-tuning. Configurations that do not fit at batch size 1
    are kept (max 0) — they carry information about the memory intercept.
    """
    dense_flags = [True, False] if sparsities is None else list(sparsities)
    model_mem = model_memory_gb(cfg)
    observations = []
    for gpu in gpus:
        for seq_len in seq_lens:
            for dense in dense_flags:
                observations.append(
                    BatchSizeObservation(
                        gpu_memory_gb=gpu.memory_gb,
                        model_memory_gb=model_mem,
                        seq_len=seq_len,
                        sparsity=cfg.moe.sparsity(dense),
                        max_batch_size=max_batch_size(cfg, gpu, seq_len, dense),
                    )
                )
    return observations


def observations_from_sweep(points: Sequence[SweepPoint]) -> List[ThroughputObservation]:
    """Convert executed sweep points into Eq. 2 observations."""
    return [
        ThroughputObservation(
            batch_size=p.scenario.batch_size,
            sparsity=p.scenario.sparsity,
            throughput_qps=p.queries_per_second,
        )
        for p in points
    ]


def collect_throughput_observations(
    cfg: ModelConfig,
    gpu: GPUSpec,
    seq_len: int,
    dense: bool,
    batch_sizes: Optional[Sequence[int]] = None,
    cache: Optional[SimulationCache] = None,
) -> List[ThroughputObservation]:
    """Sweep batch sizes through the scenario engine, as the paper sweeps
    hardware.

    Default batch sizes run from 1 to the memory-limited maximum for the
    configuration, which is what both Fig. 14's ground-truth dots and the
    fitting procedure use. The sweep goes through the (shared) simulation
    cache.
    """
    if batch_sizes is None:
        grid = ScenarioGrid.batch_sweep(cfg, gpu, seq_len=seq_len, dense=dense)
    else:
        grid = ScenarioGrid(
            Scenario(model=cfg, gpu=gpu, batch_size=b, seq_len=seq_len, dense=dense)
            for b in batch_sizes
        )
    return observations_from_sweep(SweepRunner(cache=cache).run(grid))
