"""Training metric containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class EpochMetrics:
    """Aggregates for one fine-tuning epoch. The three stage sums are the
    measured Fig. 4 breakdown: forward (loss included), backward
    (``zero_grad`` included) and optimizer seconds, summed over steps;
    ``wall_seconds`` also covers batching."""

    epoch: int
    mean_loss: float
    num_queries: int
    num_tokens: int
    wall_seconds: float
    forward_seconds: float
    backward_seconds: float
    optimizer_seconds: float
    eval_accuracy: Optional[float] = None

    @property
    def queries_per_second(self) -> float:
        """Measured throughput in the paper's metric (queries/second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_queries / self.wall_seconds


@dataclass
class TrainingHistory:
    """Per-epoch metrics for a whole fine-tuning run."""

    epochs: List[EpochMetrics] = field(default_factory=list)

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    @property
    def losses(self) -> List[float]:
        return [m.mean_loss for m in self.epochs]

    @property
    def accuracies(self) -> List[Optional[float]]:
        return [m.eval_accuracy for m in self.epochs]

    @property
    def final_accuracy(self) -> Optional[float]:
        for metrics in reversed(self.epochs):
            if metrics.eval_accuracy is not None:
                return metrics.eval_accuracy
        return None

    def best_accuracy(self) -> Optional[float]:
        values = [a for a in self.accuracies if a is not None]
        return max(values) if values else None
