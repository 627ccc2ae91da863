"""End-to-end fine-tuning cost estimation (the paper's Section V pipeline).

The pipeline estimates, for a model + dataset + GPU:

1. the maximum batch size supported by GPU memory (memory oracle or the
   fitted Eq. 1 model);
2. throughput at that batch size (fitted Eq. 2 model over a simulated
   batch-size sweep);
3. total hours and dollars for ``epochs x num_queries`` at the provider's
   hourly rate — reproducing Table IV and the OpenOrca projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..cloud.pricing import DEFAULT_CATALOG, PriceCatalog
from ..data.registry import DATASET_STATS
from ..gpu.specs import GPUSpec
from ..memory.estimator import EFFECTIVE_SEQ_LEN, max_batch_size
from ..models.config import BlackMambaConfig, MixtralConfig
from ..scenarios import Scenario, SimulationCache, resolve_cache
from .fitting import collect_throughput_observations
from .throughput import ThroughputModel

ModelConfig = Union[MixtralConfig, BlackMambaConfig]


def wall_clock_hours(total_queries: int, throughput_qps: float) -> float:
    """Hours to push ``total_queries`` through at ``throughput_qps``
    (infinite when the configuration produces no throughput). Shared by
    the Table IV estimates and the cluster planner's projections."""
    if throughput_qps <= 0:
        return float("inf")
    return total_queries / throughput_qps / 3600.0


@dataclass(frozen=True)
class CostEstimate:
    """One row of a Table IV-style cost report."""

    gpu_name: str
    gpu_memory_gb: float
    max_batch_size: int
    throughput_qps: float
    dollars_per_hour: float
    num_queries: int
    epochs: int
    provider: str = "cudo"

    @property
    def total_queries(self) -> int:
        return self.num_queries * self.epochs

    @property
    def hours(self) -> float:
        return wall_clock_hours(self.total_queries, self.throughput_qps)

    @property
    def dollars(self) -> float:
        return self.hours * self.dollars_per_hour


class FineTuningCostModel:
    """The paper's analytical cost model, calibrated on the simulator.

    For every requested GPU the model sweeps batch sizes on the simulator,
    fits Eq. 2, and evaluates it at the memory-limited max batch size.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        seq_len: int,
        dense: bool = False,
        catalog: Optional[PriceCatalog] = None,
        cache: Optional[SimulationCache] = None,
    ) -> None:
        self.cfg = cfg
        self.seq_len = seq_len
        self.dense = dense
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        self.cache = resolve_cache(cache)

    @classmethod
    def for_dataset(
        cls,
        cfg: ModelConfig,
        dataset_key: str,
        dense: bool = False,
        catalog: Optional[PriceCatalog] = None,
        cache: Optional[SimulationCache] = None,
    ) -> "FineTuningCostModel":
        """Build a cost model using the dataset's padded sequence length."""
        if dataset_key not in EFFECTIVE_SEQ_LEN:
            raise KeyError(f"unknown dataset {dataset_key!r}")
        return cls(
            cfg,
            seq_len=EFFECTIVE_SEQ_LEN[dataset_key],
            dense=dense,
            catalog=catalog,
            cache=cache,
        )

    # ------------------------------------------------------------------
    def throughput_model(self, gpu: GPUSpec) -> ThroughputModel:
        """Fit Eq. 2 for one GPU from a simulated sweep. The fit is a pure
        function of the cached traces, so it is memoized on the simulation
        cache — keyed by the full GPU spec, shared across cost-model
        instances."""
        def fit() -> ThroughputModel:
            dense_obs = collect_throughput_observations(
                self.cfg, gpu, self.seq_len, dense=True, cache=self.cache,
            )
            sparse_obs = collect_throughput_observations(
                self.cfg, gpu, self.seq_len, dense=False, cache=self.cache,
            )
            observations = dense_obs + sparse_obs
            if len(observations) < 3:
                raise RuntimeError(
                    f"not enough feasible batch sizes on {gpu.name} to fit Eq. 2"
                )
            return ThroughputModel.fit(observations)

        return self.cache.memoize(("eq2-fit", self.cfg, gpu, self.seq_len), fit)

    def estimate(
        self,
        gpu: GPUSpec,
        num_queries: int,
        epochs: int = 10,
        provider: str = "cudo",
        use_simulator_directly: bool = False,
    ) -> CostEstimate:
        """Estimate the fine-tuning cost on one GPU.

        ``use_simulator_directly=True`` bypasses the Eq. 2 fit and queries
        the simulator at the max batch size (useful for validating the fit
        against "ground truth").
        """
        mbs = max_batch_size(self.cfg, gpu, self.seq_len, self.dense)
        if mbs < 1:
            raise ValueError(
                f"{self.cfg.name} does not fit on {gpu.name} at seq_len={self.seq_len}"
            )
        if use_simulator_directly:
            qps = self.cache.throughput(
                Scenario(
                    model=self.cfg,
                    gpu=gpu,
                    batch_size=mbs,
                    seq_len=self.seq_len,
                    dense=self.dense,
                )
            )
        else:
            qps = self.throughput_model(gpu).predict(mbs, self.cfg.moe.sparsity(self.dense))
        return CostEstimate(
            gpu_name=gpu.name,
            gpu_memory_gb=gpu.memory_gb,
            max_batch_size=mbs,
            throughput_qps=qps,
            dollars_per_hour=self.catalog.dollars_per_hour(gpu.name, provider),
            num_queries=num_queries,
            epochs=epochs,
            provider=provider,
        )

    def rank_gpus(
        self,
        gpus: Sequence[GPUSpec],
        num_queries: int,
        epochs: int = 10,
        provider: str = "cudo",
    ) -> List[CostEstimate]:
        """All estimates sorted by total dollars — the paper's "choose the
        most cost-efficient GPU" use case."""
        estimates = [self.estimate(g, num_queries, epochs=epochs, provider=provider) for g in gpus]
        return sorted(estimates, key=lambda e: e.dollars)


def dataset_num_queries(dataset_key: str) -> int:
    """Query counts from the dataset registry: Table II rows plus the
    projection corpora (e.g. OpenOrca) that live beside them."""
    if dataset_key not in DATASET_STATS:
        raise KeyError(f"unknown dataset {dataset_key!r}")
    return DATASET_STATS[dataset_key].num_queries
