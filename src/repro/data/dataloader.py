"""Batching with right-padding for fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from .datasets import IGNORE_INDEX, Query, SyntheticDataset


@dataclass
class Batch:
    """Right-padded batch: pads carry ``pad_id`` inputs and masked labels."""

    input_ids: np.ndarray  # (batch, max_len) int64
    labels: np.ndarray  # (batch, max_len) int64, IGNORE_INDEX on pads/prompt
    lengths: np.ndarray  # (batch,) original lengths

    @property
    def batch_size(self) -> int:
        return int(self.input_ids.shape[0])

    @property
    def num_tokens(self) -> int:
        return int(self.lengths.sum())


def collate(queries: List[Query], pad_id: int) -> Batch:
    """Pad a list of queries to the longest sequence in the group."""
    if not queries:
        raise ValueError("cannot collate an empty list of queries")
    max_len = max(q.length for q in queries)
    input_ids = np.full((len(queries), max_len), pad_id, dtype=np.int64)
    labels = np.full((len(queries), max_len), IGNORE_INDEX, dtype=np.int64)
    lengths = np.zeros(len(queries), dtype=np.int64)
    for row, query in enumerate(queries):
        input_ids[row, : query.length] = query.input_ids
        labels[row, : query.length] = query.labels
        lengths[row] = query.length
    return Batch(input_ids=input_ids, labels=labels, lengths=lengths)


class DataLoader:
    """Shuffling mini-batch iterator over a :class:`SyntheticDataset`."""

    def __init__(
        self,
        dataset: SyntheticDataset,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self._epoch = 0

    def __len__(self) -> int:
        full, remainder = divmod(len(self.dataset), self.batch_size)
        return full if self.drop_last or remainder == 0 else full + 1

    def __iter__(self) -> Iterator[Batch]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        self._epoch += 1
        pad_id = self.dataset.vocab.pad_id
        for start in range(0, len(order), self.batch_size):
            chunk = order[start : start + self.batch_size]
            if self.drop_last and chunk.size < self.batch_size:
                return
            yield collate([self.dataset.queries[int(i)] for i in chunk], pad_id)
