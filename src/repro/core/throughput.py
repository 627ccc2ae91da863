"""The paper's Eq. 2 — logarithmic batch-size -> throughput model.

As printed, Eq. 2 reads ``Throughput = C2 * log(batch_size / sparsity * C3)
+ C4``. Taken literally, C3 enters only additively after the log
(``log(b) - log(s) + log(C3)``) and cannot "tune how much the MoE sparsity
affects the throughput" as the text describes — it is degenerate with the
intercept C4. We therefore implement the text's stated *intent* as the
default form::

    exponent:  Throughput = C2 * log(batch_size / sparsity**C3) + C4

where C3 genuinely attenuates sparsity's influence, and keep the literal
form available for comparison::

    literal:   Throughput = C2 * log(batch_size / (sparsity * C3)) + C4

Both are fitted with scipy curve fitting against measured (simulated)
throughput sweeps, and validated with the paper's RMSE metric (Figs. 14
and 15 report RMSE <= 0.79 on A40 and <= 0.55 on other GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Tuple

import numpy as np

FormName = Literal["exponent", "literal"]


@dataclass(frozen=True)
class ThroughputObservation:
    """One measured point of the (batch size, sparsity) -> q/s surface."""

    batch_size: int
    sparsity: float
    throughput_qps: float


@dataclass
class ThroughputModel:
    """Eq. 2 with fitted coefficients.

    ``c2``: scaling coefficient (GPU/model/dataset dependent),
    ``c3``: MoE attenuation coefficient,
    ``c4``: intercept — conceptually the batch-size-1 throughput.
    """

    c2: float
    c3: float
    c4: float
    form: FormName = "exponent"

    def predict(self, batch_size: float, sparsity: float) -> float:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not 0.0 < sparsity <= 1.0:
            raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
        if self.form == "exponent":
            argument = batch_size / sparsity**self.c3
        else:
            argument = batch_size / (sparsity * self.c3)
        value = self.c2 * np.log(argument) + self.c4
        return float(max(0.0, value))

    def predict_many(self, observations: Sequence[ThroughputObservation]) -> np.ndarray:
        return np.array([self.predict(o.batch_size, o.sparsity) for o in observations])

    @classmethod
    def fit(
        cls,
        observations: Sequence[ThroughputObservation],
        form: FormName = "exponent",
    ) -> "ThroughputModel":
        """Fit (C2, C3, C4) as the paper does with scipy."""
        # Imported here: scipy.optimize is ~0.4 s of import and planning never fits.
        from scipy.optimize import curve_fit

        if len(observations) < 3:
            raise ValueError(f"need at least 3 observations, got {len(observations)}")
        batch = np.array([o.batch_size for o in observations], dtype=float)
        sparsity = np.array([o.sparsity for o in observations], dtype=float)
        target = np.array([o.throughput_qps for o in observations], dtype=float)

        if form == "exponent":

            def equation(x, c2, c3, c4):
                b, s = x
                return c2 * np.log(b / s**c3) + c4

            p0 = (max(target.std(), 0.1), 1.0, max(target.min(), 0.05))
            bounds = ([1e-6, -5.0, -10.0], [1e3, 5.0, 1e3])
        else:

            def equation(x, c2, c3, c4):
                b, s = x
                return c2 * np.log(b / (s * c3)) + c4

            p0 = (max(target.std(), 0.1), 1.0, max(target.min(), 0.05))
            bounds = ([1e-6, 1e-6, -1e3], [1e3, 1e3, 1e3])

        params, _ = curve_fit(equation, (batch, sparsity), target, p0=p0, bounds=bounds, maxfev=20000)
        c2, c3, c4 = (float(p) for p in params)
        return cls(c2=c2, c3=c3, c4=c4, form=form)

    def rmse(self, observations: Sequence[ThroughputObservation]) -> float:
        """The paper's validation metric (Figs. 14/15)."""
        predictions = self.predict_many(observations)
        target = np.array([o.throughput_qps for o in observations])
        return float(np.sqrt(np.mean((predictions - target) ** 2)))


def fit_dense_sparse(
    dense: Sequence[ThroughputObservation],
    sparse: Sequence[ThroughputObservation],
    form: FormName = "exponent",
) -> Tuple[ThroughputModel, float]:
    """Fit one model over a combined dense+sparse sweep (as in Fig. 14)
    and return it with its overall RMSE."""
    combined = list(dense) + list(sparse)
    model = ThroughputModel.fit(combined, form=form)
    return model, model.rmse(combined)
