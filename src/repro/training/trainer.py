"""Fine-tuning loop reproducing the paper's training setup.

The paper fine-tunes with LLaMA-Factory: AdamW, constant learning rate
(5e-5 at full scale), 10 epochs, loss on answer tokens only, QLoRA +
gradient checkpointing for Mixtral and full fine-tuning for BlackMamba.
:class:`FineTuner` implements the same loop over the synthetic datasets;
:func:`pretrain_language_model` provides the "pre-trained" starting state
(plain LM objective plus a router load-balancing loss, giving the balanced
routers that pre-trained Mixtral exhibits in the paper's Fig. 11). Both
run every step through :func:`_train_step`, which also times its three
stages: forward (loss included), backward (``zero_grad`` included) and
optimizer. :class:`FineTuner` sums them per epoch, giving a measured
Fig. 4 stage breakdown of the real substrate.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..data import DataLoader, SyntheticDataset
from ..nn import cross_entropy
from ..optim import AdamW
from .metrics import EpochMetrics, TrainingHistory


def _train_step(
    model, optimizer: AdamW, inputs: np.ndarray, targets: np.ndarray, aux_loss_weight: float = 0.0
) -> Tuple[float, float, float, float]:
    """One optimizer step on cross-entropy plus ``aux_loss_weight`` times the
    routers' balancing loss. Returns the loss and the forward, backward and
    optimizer seconds."""
    start = time.perf_counter()
    loss = cross_entropy(model(inputs), targets)
    if aux_loss_weight != 0:
        aux = model.collect_aux_loss()
        if aux is not None:
            loss = loss + aux * aux_loss_weight
    after_forward = time.perf_counter()
    optimizer.zero_grad()
    loss.backward()
    after_backward = time.perf_counter()
    optimizer.step()
    after_optimizer = time.perf_counter()
    return (
        float(loss.item()),
        after_forward - start,
        after_backward - after_forward,
        after_optimizer - after_backward,
    )


class FineTuner:
    """Epoch-based supervised fine-tuning driver (no balancing term, as in
    the paper)."""

    def __init__(
        self,
        model,
        dataset: SyntheticDataset,
        batch_size: int = 8,
        learning_rate: float = 5e-3,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.batch_size = batch_size
        self.loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
        self.optimizer = AdamW(model.parameters(), lr=learning_rate)
        self.history = TrainingHistory()

    def train_epoch(self, epoch: int) -> EpochMetrics:
        self.model.train()
        losses = []
        stage_seconds = np.zeros(3)  # forward, backward, optimizer
        queries = 0
        tokens = 0
        start = time.perf_counter()
        for batch in self.loader:
            loss, *seconds = _train_step(self.model, self.optimizer, batch.input_ids, batch.labels)
            losses.append(loss)
            stage_seconds += seconds
            queries += batch.batch_size
            tokens += batch.num_tokens
        wall = time.perf_counter() - start
        forward, backward, optimizer = stage_seconds.tolist()
        return EpochMetrics(
            epoch=epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            num_queries=queries,
            num_tokens=tokens,
            wall_seconds=wall,
            forward_seconds=forward,
            backward_seconds=backward,
            optimizer_seconds=optimizer,
        )

    def train(
        self,
        num_epochs: int = 10,
        eval_fn: Optional[Callable[[], float]] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run ``num_epochs`` epochs; ``eval_fn`` is called after each one
        (the paper tests accuracy at every epoch, Fig. 3)."""
        for epoch in range(1, num_epochs + 1):
            metrics = self.train_epoch(epoch)
            if eval_fn is not None:
                metrics.eval_accuracy = eval_fn()
            self.history.append(metrics)
            if verbose:
                acc = f", acc={metrics.eval_accuracy:.3f}" if metrics.eval_accuracy is not None else ""
                print(
                    f"epoch {epoch:2d}: loss={metrics.mean_loss:.4f}, "
                    f"{metrics.queries_per_second:.1f} q/s{acc}"
                )
        return self.history


def pretrain_language_model(
    model,
    dataset: SyntheticDataset,
    steps: int = 60,
    batch_size: int = 8,
    learning_rate: float = 2e-3,
    aux_loss_weight: float = 1e-2,
    seed: int = 0,
) -> float:
    """Light LM pre-training to produce a plausible pre-trained checkpoint.

    Trains next-token prediction on *all* positions (not just answers) with
    a Switch-style auxiliary loss that balances the routers — mirroring how
    production MoE models are pre-trained for balance. Returns the final
    loss. Fine-tuning experiments start from this state so that
    pre/post-fine-tuning comparisons (Fig. 3 epoch 0, Fig. 11 "HE" vs
    "HE_tuned") are meaningful.
    """
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
    optimizer = AdamW(model.parameters(), lr=learning_rate)
    pad_id = dataset.vocab.pad_id
    model.set_aux_loss(aux_loss_weight != 0)
    model.train()
    last_loss = float("nan")
    done = 0
    while done < steps:
        for batch in loader:
            # Plain LM objective: predict every next token.
            inputs = batch.input_ids
            targets = np.full_like(inputs, -100)
            targets[:, :-1] = inputs[:, 1:]
            targets[targets == pad_id] = -100
            last_loss, *_ = _train_step(model, optimizer, inputs, targets, aux_loss_weight)
            done += 1
            if done >= steps:
                break
    model.set_aux_loss(False)
    return last_loss
