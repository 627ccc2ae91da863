"""Parallelism strategies: how a fine-tuning job is laid out on GPUs.

A :class:`ParallelismStrategy` describes a layout; the one estimate,
:func:`~repro.gpu.multigpu.estimate_from_trace`, prices it from the
strategy's tensor-parallel degree and accumulation depth.

* :class:`DataParallel` — every GPU holds a full replica; one gradient
  all-reduce of the trainable parameters per optimizer step.
* :class:`TensorParallel` — each layer's weights (and optimizer moments)
  are sharded across ``degree`` GPUs; every micro-batch pays two
  activation synchronizations per layer in forward and backward
  (Megatron-style, expressed as reduce-scatter + all-gather). GPUs
  beyond the TP degree form data-parallel groups, so one class covers
  pure TP (``degree == num_gpus``) and hybrid TP x DP; the gradient
  all-reduce then moves the *sharded* payload across the DP groups.
* the ``grad_accum`` axis (on either strategy) — run ``k`` micro-batches
  per optimizer step, trading per-device micro-batch for global batch at
  fixed memory while amortizing the optimizer update and gradient sync.

The per-device trace a layout is priced from must match it: tensor
parallelism simulates the *sharded* per-device workload (the scenario
layer keys those traces by the ``tensor_parallel`` workload override),
data parallelism the full replica. Strategies are frozen and hashable so
they can ride on scenarios and in cache keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True)
class ParallelismStrategy:
    """Pure data parallelism with an optional gradient-accumulation axis.

    Subclasses extend the layout; this base *is* the data-parallel
    strategy (:class:`DataParallel` is an alias-by-inheritance so specs
    read naturally).
    """

    grad_accum: int = 1

    def __post_init__(self) -> None:
        if self.grad_accum < 1:
            raise ValueError(f"grad_accum must be >= 1, got {self.grad_accum}")

    @property
    def tensor_parallel(self) -> int:
        """TP degree; 1 means every GPU holds a full replica."""
        return 1

    @property
    def is_default(self) -> bool:
        """True for plain data parallelism without accumulation, the
        layout plan JSON and scenario labels leave unnamed."""
        return self.tensor_parallel == 1 and self.grad_accum == 1

    def data_parallel_ways(self, num_gpus: int) -> int:
        return num_gpus // self.tensor_parallel

    def validate(self, num_gpus: int) -> None:
        """Reject layouts the cluster size cannot host."""
        if not self.fits(num_gpus):
            raise ValueError(
                f"tensor-parallel degree {self.tensor_parallel} does not divide "
                f"num_gpus={num_gpus}"
            )

    def fits(self, num_gpus: int) -> bool:
        t = self.tensor_parallel
        return num_gpus >= t and num_gpus % t == 0

    def spec(self) -> str:
        """Canonical spelling, parseable by :func:`get_strategy`."""
        head = f"tp{self.tensor_parallel}" if self.tensor_parallel > 1 else "dp"
        return head if self.grad_accum == 1 else f"{head}-ga{self.grad_accum}"

    def global_batch_size(self, num_gpus: int, per_device_batch: int) -> int:
        """Queries contributing to one optimizer step across the fleet."""
        return self.data_parallel_ways(num_gpus) * self.grad_accum * per_device_batch


class DataParallel(ParallelismStrategy):
    """Named alias of the base strategy: full replicas, gradient
    all-reduce, optional gradient accumulation."""


@dataclass(frozen=True)
class TensorParallel(ParallelismStrategy):
    """Megatron-style tensor parallelism, hybrid with DP beyond ``degree``."""

    degree: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.degree < 2:
            raise ValueError(
                f"TensorParallel degree must be >= 2 (use DataParallel), got {self.degree}"
            )

    @property
    def tensor_parallel(self) -> int:
        return self.degree


DATA_PARALLEL = DataParallel()

_SPEC_RE = re.compile(r"^(?:dp|tp(?P<tp>[1-9]\d*))(?:-ga(?P<ga>[1-9]\d*))?$")


def get_strategy(spec: Union[str, ParallelismStrategy]) -> ParallelismStrategy:
    """Resolve a strategy spelling — ``"dp"``, ``"tp4"``, ``"dp-ga8"``,
    ``"tp4-ga2"`` (case-insensitive) — to a strategy instance; instances
    pass through so ad-hoc strategies participate like ad-hoc GPU specs.
    ``"tp1"`` normalizes to data parallelism."""
    if isinstance(spec, ParallelismStrategy):
        return spec
    match = _SPEC_RE.match(spec.lower())
    if match is None:
        raise KeyError(
            f"unknown parallelism strategy {spec!r}; expected 'dp', 'tpN' or "
            f"an optional '-gaK' suffix (e.g. 'tp4-ga2')"
        )
    grad_accum = int(match.group("ga") or 1)
    degree = int(match.group("tp") or 1)
    if degree == 1:
        return DataParallel(grad_accum=grad_accum)
    return TensorParallel(grad_accum=grad_accum, degree=degree)


def tp_degrees(max_tp: int) -> Tuple[int, ...]:
    """The tensor-parallel degrees the planner enumerates: powers of two
    in ``[2, max_tp]`` (degree 1 is the data-parallel strategy)."""
    if max_tp < 1:
        raise ValueError(f"max_tp must be >= 1, got {max_tp}")
    degrees = []
    degree = 2
    while degree <= max_tp:
        degrees.append(degree)
        degree *= 2
    return tuple(degrees)
