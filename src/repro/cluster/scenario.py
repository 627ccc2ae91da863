"""Cluster scenarios: the multi-GPU extension of the scenario space.

A :class:`ClusterScenario` adds the cluster axes — ``num_gpus``,
``interconnect`` and the :class:`~repro.gpu.parallelism.ParallelismStrategy`
— to :class:`~repro.scenarios.scenario.Scenario`. The cache-key contract
distinguishes two kinds of axis:

* **pure data-parallel axes** (``num_gpus``, ``interconnect``, the
  ``grad_accum`` knob) do not change the per-device step, so the
  inherited :meth:`Scenario.key` excludes them: the
  :class:`~repro.scenarios.cache.SimulationCache` memoizes one *replica*
  trace that every cluster size, interconnect and accumulation depth
  shares. Scaling a sweep from 1 to 8 GPUs never re-simulates.
* **tensor parallelism changes the per-device work** (each device runs a
  weight shard), so a TP strategy injects the ``tensor_parallel``
  workload override into the scenario's ``overrides`` axis: the key (and
  :meth:`Scenario.digest`) change with the TP degree, and the cached trace *is*
  the sharded per-device step. All cluster sizes and ``grad_accum``
  depths at one TP degree still share that one sharded trace.

Cluster-level identity (for derived results such as plan candidates)
lives in :meth:`ClusterScenario.cluster_key`, which appends the cluster
axes to the replica key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple, Union

from ..gpu.multigpu import Interconnect, get_interconnect
from ..gpu.parallelism import DATA_PARALLEL, ParallelismStrategy, get_strategy
from ..scenarios import Scenario, freeze_overrides

# The workload-override key a TP strategy owns on cluster scenarios.
TP_OVERRIDE = "tensor_parallel"


@dataclass(frozen=True)
class ClusterScenario(Scenario):
    """One hashable point of the (replica scenario x cluster) space.

    ``interconnect`` accepts a registry key (``"nvlink"``,
    ``"pcie-gen4"``) or an :class:`Interconnect` instance, and
    ``strategy`` a spelling (``"dp"``, ``"tp4"``, ``"tp4-ga2"``) or a
    :class:`ParallelismStrategy` instance; both are normalized on
    construction so equal scenarios hash identically regardless of
    spelling. A tensor-parallel strategy also reconciles the
    ``tensor_parallel`` workload override (see the module docstring) —
    that key is strategy-owned here, and an explicit override that
    conflicts with the strategy's degree raises rather than being
    silently discarded.
    """

    num_gpus: int = 1
    interconnect: Union[str, Interconnect] = "nvlink"
    strategy: Union[str, ParallelismStrategy] = DATA_PARALLEL

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        object.__setattr__(self, "interconnect", get_interconnect(self.interconnect))
        strategy = get_strategy(self.strategy)
        strategy.validate(self.num_gpus)
        object.__setattr__(self, "strategy", strategy)
        # Reconcile the strategy-owned workload override: the strategy is
        # the single source of truth for the TP degree, so a conflicting
        # explicit override is an error (a silently discarded one would
        # hand back unsharded numbers), while a matching one — e.g. a
        # `dataclasses.replace` copy carrying the injected entry — is
        # normalized away and re-injected.
        overrides = dict(self.overrides)
        existing = overrides.pop(TP_OVERRIDE, None)
        degree = strategy.tensor_parallel
        if existing is not None and existing != degree:
            raise ValueError(
                f"the {TP_OVERRIDE!r} workload override is strategy-owned on "
                f"cluster scenarios: override says {existing}, strategy "
                f"{strategy.spec()!r} says {degree} — set the strategy instead "
                f"(use with_(strategy=...) to change it on a copy)"
            )
        if existing is not None or degree > 1:
            if degree > 1:
                overrides[TP_OVERRIDE] = degree
            object.__setattr__(self, "overrides", freeze_overrides(overrides))

    # ------------------------------------------------------------------
    # Resolution / identity
    # ------------------------------------------------------------------
    @property
    def interconnect_spec(self) -> Interconnect:
        """The resolved interconnect (normalization makes this the field
        itself; kept as a property to mirror ``gpu_spec``)."""
        return self.interconnect  # type: ignore[return-value]

    @property
    def strategy_spec(self) -> ParallelismStrategy:
        """The resolved parallelism strategy (normalized on construction,
        mirroring ``interconnect_spec``)."""
        return self.strategy  # type: ignore[return-value]

    @property
    def tensor_parallel(self) -> int:
        return self.strategy_spec.tensor_parallel

    @property
    def grad_accum(self) -> int:
        return self.strategy_spec.grad_accum

    def replica(self) -> Scenario:
        """The single-device scenario every worker of this cluster runs —
        the full replica under data parallelism, one weight shard under
        tensor parallelism (the TP workload override rides along in
        ``overrides``). Shares :meth:`key` with ``self``, so both hit the
        same cached trace."""
        return Scenario(
            model=self.model,
            gpu=self.gpu,
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            dense=self.dense,
            dataset=self.dataset,
            overrides=self.overrides,
        )

    def with_(self, **changes) -> "Scenario":
        """A modified copy. Changing ``strategy`` releases the old
        strategy's claim on the ``tensor_parallel`` override so the new
        strategy can inject its own degree (bare ``dataclasses.replace``
        would carry the stale entry into the conflict check)."""
        if "strategy" in changes and "overrides" not in changes:
            changes["overrides"] = tuple(
                (key, value) for key, value in self.overrides if key != TP_OVERRIDE
            )
        return replace(self, **changes)

    def cluster_key(self) -> Tuple:
        """Cluster-level identity: the replica key plus the cluster axes.
        Use this (not :meth:`key`) to memoize derived results that depend
        on the collectives."""
        return self.key() + (self.num_gpus, self.interconnect_spec, self.strategy_spec)

    def label(self, include_gpu: bool = False) -> str:
        """The replica label plus the cluster axes, e.g.
        ``mixtral_S4_A40_x8_tp4_NVLink`` (the strategy only when not the
        default)."""
        strategy = self.strategy_spec
        parts = [super().label(include_gpu=include_gpu), f"x{self.num_gpus}"]
        if not strategy.is_default:
            parts.append(strategy.spec())
        parts.append(self.interconnect_spec.name)
        return "_".join(parts)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def global_batch_size(self) -> int:
        """Queries contributing to one optimizer step across the fleet."""
        return self.strategy_spec.global_batch_size(self.num_gpus, self.batch_size)
