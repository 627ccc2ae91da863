"""Dataset registry with the paper's Table II statistics.

``DATASET_STATS`` records the published numbers (query counts and median
sequence lengths); :func:`build_benchmark_suite` materializes synthetic
datasets — full-scale for statistics, or length-scaled-down for tiny-model
training experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from .datasets import EvalDataset, SyntheticDataset
    from .tokenizer import Vocabulary


@dataclass(frozen=True)
class DatasetStats:
    """One row of the paper's Table II (or a Section V projection corpus)."""

    key: str
    display_name: str
    num_queries: int
    median_seq_len: int
    task_type: str
    role: str  # "train", "eval" or "projection"


DATASET_STATS: Dict[str, DatasetStats] = {
    "commonsense15k": DatasetStats("commonsense15k", "Commonsense 15K (CS)", 15000, 79, "commonsense", "train"),
    "math14k": DatasetStats("math14k", "Math 14K (MATH)", 14000, 174, "math", "train"),
    "hellaswag": DatasetStats("hellaswag", "Hellaswag (HE)", 10000, 272, "commonsense", "eval"),
    "gsm8k": DatasetStats("gsm8k", "GSM8K (GS)", 1300, 148, "math", "eval"),
    # Enterprise-scale corpus of the paper's Section V-C cost projection;
    # not part of Table II, so it only feeds the cost pipeline.
    "openorca": DatasetStats("openorca", "OpenOrca (projection)", 2_000_000, 200, "assistant", "projection"),
}


@dataclass
class BenchmarkSuite:
    """All four datasets built over one shared vocabulary and world."""

    vocab: Vocabulary
    commonsense15k: SyntheticDataset
    math14k: SyntheticDataset
    hellaswag: EvalDataset
    gsm8k: EvalDataset

    def train_dataset(self, key: str) -> SyntheticDataset:
        if key == "commonsense15k":
            return self.commonsense15k
        if key == "math14k":
            return self.math14k
        raise KeyError(f"{key!r} is not a training dataset")

    def eval_dataset(self, key: str) -> EvalDataset:
        if key == "hellaswag":
            return self.hellaswag
        if key == "gsm8k":
            return self.gsm8k
        raise KeyError(f"{key!r} is not an evaluation dataset")


def build_benchmark_suite(
    seed: int = 0,
    train_size: Optional[int] = None,
    eval_size: Optional[int] = None,
    length_scale: float = 1.0,
) -> BenchmarkSuite:
    """Construct the four synthetic datasets over a shared world.

    ``length_scale < 1`` shrinks sequence lengths proportionally for
    tiny-model training while preserving the distribution shape;
    ``train_size``/``eval_size`` override the paper-scale counts.
    """
    # The builders load here, not with the module: the planners read
    # DATASET_STATS and never build a dataset.
    from .datasets import build_commonsense15k, build_gsm8k, build_hellaswag, build_math14k
    from .tokenizer import build_vocabulary
    from .world import ArithmeticWorld, KnowledgeWorld

    vocab = build_vocabulary()
    knowledge = KnowledgeWorld(vocab, seed=seed)
    arithmetic = ArithmeticWorld(vocab)
    cs_size = train_size if train_size is not None else DATASET_STATS["commonsense15k"].num_queries
    math_size = train_size if train_size is not None else DATASET_STATS["math14k"].num_queries
    he_size = eval_size if eval_size is not None else DATASET_STATS["hellaswag"].num_queries
    gs_size = eval_size if eval_size is not None else DATASET_STATS["gsm8k"].num_queries
    return BenchmarkSuite(
        vocab=vocab,
        commonsense15k=build_commonsense15k(
            vocab, knowledge, size=cs_size, seed=seed + 1, length_scale=length_scale
        ),
        math14k=build_math14k(
            vocab, arithmetic, size=math_size, seed=seed + 2, length_scale=length_scale
        ),
        hellaswag=build_hellaswag(
            vocab, knowledge, size=he_size, seed=seed + 3, length_scale=length_scale
        ),
        gsm8k=build_gsm8k(
            vocab, arithmetic, size=gs_size, seed=seed + 4, length_scale=length_scale
        ),
    )
