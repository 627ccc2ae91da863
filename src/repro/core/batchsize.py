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

    def project_memory_sweep(
        self, memories_gb: Sequence[float], seq_len: int, sparsity: float
    ) -> Dict[float, int]:
        """Fig. 13: projected max batch size across GPU memory capacities."""
        return {m: self.predict(m, seq_len, sparsity) for m in memories_gb}

    @classmethod
    def fit(
        cls,
        observations: Sequence[BatchSizeObservation],
        initial: Tuple[float, float] = (10.0, 0.9),
        fit_overhead: bool = False,
    ) -> "BatchSizeModel":
        """Least-squares fit on the pre-floor continuous values.

        Matching the paper's procedure: observations come from sweeping
        GPUs/sequence lengths/sparsity and recording the max batch size.
        ``fit_overhead=True`` enables the third coefficient (fixed memory
        overhead beyond the weights); see the module docstring.
        """
        # Imported here: scipy.optimize is ~0.4 s of import and planning never fits.
        from scipy.optimize import least_squares

        if not observations:
            raise ValueError("cannot fit on zero observations")
        model_mem = observations[0].model_memory_gb
        if any(abs(o.model_memory_gb - model_mem) > 1e-9 for o in observations):
            raise ValueError("all observations must share one model")

        targets = np.array([o.max_batch_size + 0.5 for o in observations])

        def make_model(params: np.ndarray) -> "BatchSizeModel":
            if fit_overhead:
                c0, c1, overhead = params
            else:
                c0, c1 = params
                overhead = 0.0
            return cls(c0=float(c0), c1=float(c1), model_memory_gb=model_mem, overhead_gb=float(overhead))

        def residuals(params: np.ndarray) -> np.ndarray:
            model = make_model(params)
            preds = np.array(
                [model.predict_raw(o.gpu_memory_gb, o.seq_len, o.sparsity) for o in observations]
            )
            # Relative error keeps small-batch cells from being swamped.
            return (preds - targets) / np.maximum(targets, 1.0)

        if fit_overhead:
            x0 = np.array([*initial, 1.0])
            bounds = (np.array([1e-3, 0.0, 0.0]), np.array([1e4, 1.0, 60.0]))
        else:
            x0 = np.array(initial)
            bounds = (np.array([1e-3, 0.0]), np.array([1e4, 1.0]))
        fit = least_squares(residuals, x0=x0, bounds=bounds)
        return make_model(fit.x)

    def rmse(self, observations: Sequence[BatchSizeObservation]) -> float:
        errors = [
            self.predict(o.gpu_memory_gb, o.seq_len, o.sparsity) - o.max_batch_size
            for o in observations
        ]
        return float(np.sqrt(np.mean(np.square(errors))))
