"""Checkpoint policy: what surviving preemptions costs.

A spot fine-tune survives preemptions by periodically writing its
trainable state to durable storage and, after an interruption, restoring
the last checkpoint and redoing the lost work. The policy quantifies the
three overheads the makespan model needs:

* ``write_seconds`` — serializing the checkpoint state. Derived from the
  model's state size via :mod:`repro.memory.estimator`: a QLoRA recipe
  checkpoints only adapters + optimizer moments (the frozen NF4 base
  weights are re-downloadable), a full fine-tune checkpoints weights +
  optimizer moments.
* ``restart_seconds`` — reacquiring capacity, reloading base weights and
  the checkpoint, and rewarming the step pipeline.
* ``interval_minutes`` — the cadence; shorter intervals bound the lost
  work per preemption but pay the write cost more often. When no cadence
  menu is supplied the planner uses Daly's closed-form optimum
  (:func:`optimal_interval_minutes`, ``sqrt(2 * MTBP * C)``).

Under tensor parallelism every cost here is *per device*: each shard
writes and restores only its own slice of the trainable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from ..memory.estimator import memory_breakdown
from ..models.config import BlackMambaConfig, MixtralConfig

ModelConfig = Union[MixtralConfig, BlackMambaConfig]

# Sustained sequential bandwidth to/from the checkpoint store (network
# volume class, not local NVMe — spot state must outlive the instance).
DEFAULT_DISK_BANDWIDTH_GBS = 1.0

# Reacquire capacity + container start + CUDA context + first-step warmup.
DEFAULT_PROVISION_SECONDS = 180.0

DEFAULT_INTERVAL_MINUTES = 30.0


def checkpoint_state_gb(cfg: ModelConfig, tensor_parallel: int = 1) -> float:
    """GB written per checkpoint *per device* under the paper's recipes.

    Uses the memory estimator's breakdown at its minimal sequence length:
    checkpoint size depends only on the batch-independent state terms, so
    the activation axis is irrelevant here. Under tensor parallelism each
    device owns (and writes) only its shard of the trainable state, so
    the per-device write shrinks with the TP degree; shards stream to the
    store concurrently, which is what the makespan model's per-device
    write cost assumes.
    """
    breakdown = memory_breakdown(cfg, seq_len=1, dense=False, tensor_parallel=tensor_parallel)
    if breakdown.adapter_gb > 0:  # adapter recipe: base weights frozen
        return breakdown.adapter_gb + breakdown.optimizer_gb
    return breakdown.weights_gb + breakdown.optimizer_gb


def restart_state_gb(cfg: ModelConfig, tensor_parallel: int = 1) -> float:
    """GB read back on restart per device: the resident weight shard plus
    that device's checkpoint shard."""
    breakdown = memory_breakdown(cfg, seq_len=1, dense=False, tensor_parallel=tensor_parallel)
    return breakdown.weights_gb + checkpoint_state_gb(cfg, tensor_parallel)


def optimal_interval_minutes(mtbp_hours: float, write_seconds: float) -> float:
    """Daly's closed-form checkpoint cadence, ``sqrt(2 * MTBP * C)``.

    ``mtbp_hours`` is the mean time between preemptions seen by the job
    (the *fleet* MTBP for a cluster — any worker dying stalls the step)
    and ``C = write_seconds`` the cost of one checkpoint. The first-order
    optimum balances write overhead (``~C/tau`` per hour) against
    expected lost work per preemption (``~tau/2``). An infinite MTBP (or
    a free checkpoint) returns ``inf``/``0`` — callers clamp to the job
    length, where the cadence stops mattering.
    """
    if not mtbp_hours > 0:  # also rejects NaN
        raise ValueError(f"mtbp_hours must be positive, got {mtbp_hours}")
    if write_seconds < 0:
        raise ValueError(f"write_seconds must be >= 0, got {write_seconds}")
    if math.isinf(mtbp_hours):
        return math.inf
    return math.sqrt(2.0 * mtbp_hours * write_seconds / 3600.0) * 60.0


@dataclass(frozen=True)
class CheckpointPolicy:
    """One checkpointing configuration for the makespan model."""

    interval_minutes: float
    write_seconds: float
    restart_seconds: float

    def __post_init__(self) -> None:
        if not self.interval_minutes > 0:  # also rejects NaN
            raise ValueError(
                f"interval_minutes must be positive, got {self.interval_minutes}"
            )
        if self.write_seconds < 0:
            raise ValueError(f"write_seconds must be >= 0, got {self.write_seconds}")
        if self.restart_seconds < 0:
            raise ValueError(f"restart_seconds must be >= 0, got {self.restart_seconds}")

    # Hours are the planner's native unit.
    @property
    def interval_hours(self) -> float:
        return self.interval_minutes / 60.0

    @property
    def write_hours(self) -> float:
        return self.write_seconds / 3600.0

    @property
    def restart_hours(self) -> float:
        return self.restart_seconds / 3600.0

    @classmethod
    def for_model(
        cls,
        cfg: ModelConfig,
        interval_minutes: float = DEFAULT_INTERVAL_MINUTES,
        disk_bandwidth_gbs: float = DEFAULT_DISK_BANDWIDTH_GBS,
        provision_seconds: float = DEFAULT_PROVISION_SECONDS,
        tensor_parallel: int = 1,
    ) -> "CheckpointPolicy":
        """Derive write/restart costs from the model's state sizes —
        the *per-device* (sharded) sizes when ``tensor_parallel > 1``."""
        if disk_bandwidth_gbs <= 0:
            raise ValueError(
                f"disk_bandwidth_gbs must be positive, got {disk_bandwidth_gbs}"
            )
        return cls(
            interval_minutes=interval_minutes,
            write_seconds=checkpoint_state_gb(cfg, tensor_parallel) / disk_bandwidth_gbs,
            restart_seconds=provision_seconds
            + restart_state_gb(cfg, tensor_parallel) / disk_bandwidth_gbs,
        )
