"""Evaluation harness: multiple-choice (HellaSwag) and exact-match (GSM8K).

Both evaluators run the model in eval mode under ``no_grad`` and restore
the previous training mode afterwards, also when scoring raises; an empty
dataset is rejected before the mode is touched. Because every synthetic
answer is a single token, both reduce to scoring the logits at the final
prompt position — multiple choice compares the candidate answer logits, exact
match requires the global argmax to equal the answer token.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data import EvalDataset
from ..tensor import no_grad


def _final_logits(model, prompt_ids: np.ndarray) -> np.ndarray:
    logits = model(prompt_ids[None, :])
    return logits.data[0, -1]


def _scored_fraction(model, dataset: EvalDataset, limit: Optional[int], is_correct) -> float:
    """Fraction of items for which ``is_correct(final_logits, item)`` holds,
    scored in eval mode; the model's training mode is restored even when
    scoring raises."""
    items = dataset.items[:limit] if limit is not None else dataset.items
    if not items:
        raise ValueError("evaluation dataset is empty")
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            correct = sum(is_correct(_final_logits(model, item.prompt_ids), item) for item in items)
    finally:
        if was_training:
            model.train()
    return correct / len(items)


def evaluate_choice(model, dataset: EvalDataset, limit: Optional[int] = None) -> float:
    """Fraction of items whose true answer outscores all distractors."""

    def is_correct(logits, item) -> bool:
        scores = [float(logits[int(choice[0])]) for choice in item.choices]
        return int(np.argmax(scores)) == item.correct_index

    return _scored_fraction(model, dataset, limit, is_correct)


def evaluate_exact(model, dataset: EvalDataset, limit: Optional[int] = None) -> float:
    """Fraction of items where the argmax token equals the answer token."""

    def is_correct(logits, item) -> bool:
        return int(np.argmax(logits)) == int(item.choices[item.correct_index][0])

    return _scored_fraction(model, dataset, limit, is_correct)


def evaluate(model, dataset: EvalDataset, limit: Optional[int] = None) -> float:
    """Dispatch on the dataset's item kind."""
    kind = dataset.items[0].kind if dataset.items else "choice"
    if kind == "exact":
        return evaluate_exact(model, dataset, limit=limit)
    return evaluate_choice(model, dataset, limit=limit)
