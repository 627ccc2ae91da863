"""Loss functions for causal language-model fine-tuning."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, ops

IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean token-level cross-entropy.

    Parameters
    ----------
    logits:
        ``(batch, length, vocab)`` or ``(tokens, vocab)`` tensor.
    targets:
        Integer array matching the leading shape of ``logits``. Positions
        equal to ``ignore_index`` (prompt tokens, padding) contribute
        nothing to the loss — this mirrors how instruction fine-tuning
        masks the prompt and trains only on the answer. Any other target
        outside ``[0, vocab)`` raises ``ValueError``.
    """
    targets = np.asarray(targets)
    if logits.ndim == 3:
        batch, length, vocab = logits.shape
        logits = logits.reshape(batch * length, vocab)
        targets = targets.reshape(-1)
    elif logits.ndim != 2:
        raise ValueError(f"logits must be 2-D or 3-D, got shape {logits.shape}")

    keep = targets != ignore_index
    kept_targets = targets[keep]
    count = kept_targets.size
    if count == 0:
        raise ValueError("all target positions are masked; nothing to train on")
    vocab = logits.shape[-1]
    out_of_range = (kept_targets < 0) | (kept_targets >= vocab)
    if out_of_range.any():
        raise ValueError(
            f"target {kept_targets[out_of_range][0]} is outside the vocabulary [0, {vocab}) "
            f"and is not ignore_index ({ignore_index})"
        )

    # Only rows that carry a target reach the log-softmax; a row's value
    # does not depend on the others, so the loss is the same bit for bit.
    if count < targets.size:
        logits = ops.take_rows(logits, np.nonzero(keep)[0])
    log_probs = ops.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(count), kept_targets]
    return -picked.sum() / count


def token_accuracy(logits: Tensor, targets: np.ndarray, ignore_index: int = IGNORE_INDEX) -> float:
    """Fraction of unmasked positions where argmax(logits) == target."""
    targets = np.asarray(targets)
    predictions = logits.data.argmax(axis=-1)
    keep = targets != ignore_index
    if keep.sum() == 0:
        return 0.0
    return float((predictions[keep] == targets[keep]).mean())
