"""The paper's Eq. 1 — analytical maximum batch size model.

``MaxBSZ = floor( C0 * (GPU_mem - model_mem) / (seq_len * ((1-C1) + C1*sparsity)) )``

``C0`` (scaling coefficient) absorbs the per-token activation cost and the
gap between weight memory and total fixed memory; ``C1`` (MoE coefficient)
is the fraction of activation memory that scales with expert sparsity.
Both are fitted per model family from measured (here: memory-oracle)
maximum batch sizes, exactly as the paper fits them from hardware runs.

The paper's published values are kept for comparison; note that the
printed equation is unit-ambiguous (with memory in GB and ``C0 = 82`` the
predictions exceed the paper's own Fig. 13 by ~5x), so coefficient
*recovery* is validated on C1 and on prediction agreement, not on C0's
absolute value.

**Extension (``overhead_gb``).** As printed, Eq. 1's only memory intercept
is the model's weight memory. Empirically — in our memory oracle *and* in
the paper's own Fig. 13, whose projection line implies a ~38 GB intercept
for Mixtral versus 23.35 GB of weights — fine-tuning reserves a large
fixed block beyond the weights (optimizer state, adapters, framework
overhead). ``BatchSizeModel`` therefore supports a third fitted
coefficient, the fixed overhead in GB (default 0 = the paper's literal
two-coefficient form); the ablation benchmark compares both.

The fit is closed-form by variable projection: for a fixed ``C1`` the
residual is linear in ``(C0, C0 * overhead)``, and a narrowing grid over
``C1 in [0, 1]`` picks the best of those exact solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BatchSizeObservation:
    """One measured point: configuration -> max batch size."""

    gpu_memory_gb: float
    model_memory_gb: float
    seq_len: int
    sparsity: float
    max_batch_size: int


# Published coefficients (paper Section V-A).
PAPER_BATCH_COEFFICIENTS: Dict[str, Tuple[float, float]] = {
    "mixtral": (82.0, 0.95),
    "blackmamba": (83.0, 0.88),
}

#: Fit bounds: ``C0`` within ``C0_BOUNDS``, overhead within ``[0, MAX_OVERHEAD_GB]``.
C0_BOUNDS = (1e-3, 1e4)
MAX_OVERHEAD_GB = 60.0
#: Each of 3 ``C1`` grids spans two steps of the last around its best point.
C1_GRID_POINTS = 2001


@dataclass
class BatchSizeModel:
    """Eq. 1 with fitted coefficients (optionally +fixed overhead)."""

    c0: float
    c1: float
    model_memory_gb: float
    overhead_gb: float = 0.0

    def predict_raw(self, gpu_memory_gb: float, seq_len: int, sparsity: float) -> float:
        """The pre-floor value of Eq. 1."""
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if not 0.0 < sparsity <= 1.0:
            raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
        free = gpu_memory_gb - self.model_memory_gb - self.overhead_gb
        denom = seq_len * ((1.0 - self.c1) + self.c1 * sparsity)
        return self.c0 * free / denom

    def predict(self, gpu_memory_gb: float, seq_len: int, sparsity: float) -> int:
        """Eq. 1 with the floor; clamped at zero for undersized GPUs."""
        return max(0, math.floor(self.predict_raw(gpu_memory_gb, seq_len, sparsity)))

    @classmethod
    def fit(
        cls,
        observations: Sequence[BatchSizeObservation],
        fit_overhead: bool = False,
    ) -> "BatchSizeModel":
        """Least-squares fit on the pre-floor continuous values.

        Matching the paper's procedure: observations come from sweeping
        GPUs/sequence lengths/sparsity and recording the max batch size.
        ``fit_overhead=True`` enables the third coefficient (fixed memory
        overhead beyond the weights); see the module docstring.
        """
        if not observations:
            raise ValueError("cannot fit on zero observations")
        model_mem = observations[0].model_memory_gb
        if any(abs(o.model_memory_gb - model_mem) > 1e-9 for o in observations):
            raise ValueError("all observations must share one model")

        columns = np.array([(o.gpu_memory_gb - model_mem, o.seq_len, o.sparsity,
                             o.max_batch_size + 0.5) for o in observations]).T
        max_overhead = MAX_OVERHEAD_GB if fit_overhead else 0.0
        low, high = 0.0, 1.0
        for _ in range(3):
            c1 = np.linspace(low, high, C1_GRID_POINTS)
            c0, overhead, loss = _project_c1(c1, *columns, max_overhead)
            best = int(np.argmin(loss))
            low, high = c1[max(best - 1, 0)], c1[min(best + 1, C1_GRID_POINTS - 1)]
        return cls(c0=float(c0[best]), c1=float(c1[best]), model_memory_gb=model_mem,
                   overhead_gb=float(overhead[best]))

    def rmse(self, observations: Sequence[BatchSizeObservation]) -> float:
        errors = [
            self.predict(o.gpu_memory_gb, o.seq_len, o.sparsity) - o.max_batch_size
            for o in observations
        ]
        return float(np.sqrt(np.mean(np.square(errors))))


def _project_c1(c1, free, seq_len, sparsity, targets, max_overhead):
    """The bounded least-squares ``(c0, overhead)`` and its loss for each
    ``c1`` of a grid. With ``p = c0 * overhead``, the relative residual
    ``(c0 * (free - overhead) / d - target) * w`` is ``a * c0 + b * p - t``
    and every bound is linear in ``(c0, p)``, so the minimum is the
    unconstrained solution if feasible, else the best edge minimum."""
    weight = 1.0 / np.maximum(targets, 1.0)
    b = -weight / (seq_len * ((1.0 - c1[:, None]) + c1[:, None] * sparsity))
    a, t = -free * b, targets * weight
    saa, sab, sbb, sat, sbt = ((x * y).sum(axis=1) for x, y in
                               ((a, a), (a, b), (b, b), (a, t), (b, t)))
    with np.errstate(divide="ignore", invalid="ignore"):
        det = saa * sbb - sab**2
        unbounded_c0 = (sat * sbb - sbt * sab) / det
        c0, overhead = [unbounded_c0], [(saa * sbt - sab * sat) / det / unbounded_c0]
        for fixed in (0.0, max_overhead):  # an overhead bound: c0 by 1-D least squares
            c0.append(np.clip((sat + fixed * sbt) / (saa + 2 * fixed * sab + fixed**2 * sbb),
                              *C0_BOUNDS))
            overhead.append(np.full_like(c1, fixed))
        for fixed in C0_BOUNDS:  # a c0 bound: p by 1-D least squares
            c0.append(np.full_like(c1, fixed))
            overhead.append(np.clip((sbt - fixed * sab) / sbb / fixed, 0.0, max_overhead))
        c0, overhead = np.stack(c0), np.stack(overhead)
        inside = ((np.clip(c0[0], *C0_BOUNDS) == c0[0])
                  & (np.clip(overhead[0], 0.0, max_overhead) == overhead[0]))
        c0[0] = np.where(inside, c0[0], np.nan)
        loss = np.square(c0[..., None] * (a + overhead[..., None] * b) - t).sum(axis=2)
    loss[np.isnan(loss)] = np.inf
    best = np.argmin(loss, axis=0), np.arange(len(c1))
    return c0[best], overhead[best], loss[best]
