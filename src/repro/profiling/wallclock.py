"""Wall-clock profiling of the *real* tiny-model training substrate.

Complements the simulator: measures actual forward/backward/optimizer
stage times of the numpy training stack, giving a second, independent
source for the paper's Fig. 4-style stage breakdown (on tiny models). The
qualitative claims — backward > forward, optimizer share large under full
fine-tuning and negligible under LoRA — are checkable on real executions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..data import DataLoader, SyntheticDataset
from ..nn import cross_entropy
from ..optim import AdamW


@dataclass
class StageTimings:
    """Accumulated wall-clock seconds per training stage, plus each
    stage's fastest single step (``fastest``): the min-of-N estimate,
    which a busy host inflates far less than the sums."""

    forward: float = 0.0
    backward: float = 0.0
    optimizer: float = 0.0
    steps: int = 0
    fastest: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(("forward", "backward", "optimizer"), math.inf)
    )

    def record(self, forward: float, backward: float, optimizer: float) -> None:
        """Add one step's stage seconds."""
        self.forward += forward
        self.backward += backward
        self.optimizer += optimizer
        self.steps += 1
        for stage, seconds in (("forward", forward), ("backward", backward),
                               ("optimizer", optimizer)):
            self.fastest[stage] = min(self.fastest[stage], seconds)

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.optimizer

    def shares(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {"forward": 0.0, "backward": 0.0, "optimizer": 0.0}
        return {
            "forward": self.forward / total,
            "backward": self.backward / total,
            "optimizer": self.optimizer / total,
        }


def profile_training_stages(
    model,
    dataset: SyntheticDataset,
    batch_size: int = 8,
    num_steps: int = 10,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> StageTimings:
    """Time forward/backward/optimizer across ``num_steps`` real steps."""
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
    optimizer = AdamW(model.parameters(), lr=learning_rate)
    timings = StageTimings()
    model.train()
    steps_done = 0
    while steps_done < num_steps:
        for batch in loader:
            start = time.perf_counter()
            logits = model(batch.input_ids)
            loss = cross_entropy(logits, batch.labels)
            after_forward = time.perf_counter()
            optimizer.zero_grad()
            loss.backward()
            after_backward = time.perf_counter()
            optimizer.step()
            after_optimizer = time.perf_counter()

            timings.record(
                forward=after_forward - start,
                backward=after_backward - after_forward,
                optimizer=after_optimizer - after_backward,
            )
            steps_done += 1
            if steps_done >= num_steps:
                break
    return timings


def measure_throughput(
    model,
    dataset: SyntheticDataset,
    batch_size: int,
    num_queries: int = 200,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> float:
    """Measured queries/second of real tiny-model fine-tuning."""
    subset = dataset.subset(num_queries, rng=np.random.default_rng(seed))
    loader = DataLoader(subset, batch_size=batch_size, shuffle=False, seed=seed)
    optimizer = AdamW(model.parameters(), lr=learning_rate)
    model.train()
    processed = 0
    start = time.perf_counter()
    for batch in loader:
        logits = model(batch.input_ids)
        loss = cross_entropy(logits, batch.labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        processed += batch.batch_size
    elapsed = time.perf_counter() - start
    return processed / elapsed if elapsed > 0 else 0.0
