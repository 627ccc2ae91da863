"""Synthetic dataset substrate (S6) reproducing the paper's Table II corpora.

Only :mod:`~repro.data.registry` (``DATASET_STATS``, ``DatasetStats``,
``BenchmarkSuite``, ``build_benchmark_suite``) loads with the package.
The builders, tokenizer, worlds, dataloader and length distributions —
every other name in ``__all__`` — are resolved on first access, so a
planner that reads Table II's statistics never imports them.
"""

from ..lazy import lazy_exports

from .registry import DATASET_STATS, BenchmarkSuite, DatasetStats, build_benchmark_suite

#: Name → submodule for the names resolved on first access.
_LAZY = {
    "Batch": ".dataloader",
    "DataLoader": ".dataloader",
    "collate": ".dataloader",
    "EvalDataset": ".datasets",
    "EvalItem": ".datasets",
    "IGNORE_INDEX": ".datasets",
    "Query": ".datasets",
    "SyntheticDataset": ".datasets",
    "build_commonsense15k": ".datasets",
    "build_gsm8k": ".datasets",
    "build_hellaswag": ".datasets",
    "build_math14k": ".datasets",
    "build_pretraining_corpus": ".datasets",
    "SeqLenDistribution": ".distributions",
    "empirical_median": ".distributions",
    "SPECIAL_TOKENS": ".tokenizer",
    "Vocabulary": ".tokenizer",
    "build_vocabulary": ".tokenizer",
    "ArithmeticWorld": ".world",
    "Fact": ".world",
    "KnowledgeWorld": ".world",
    "MathProblem": ".world",
}

__all__ = [
    "ArithmeticWorld",
    "Batch",
    "BenchmarkSuite",
    "DATASET_STATS",
    "DataLoader",
    "DatasetStats",
    "EvalDataset",
    "EvalItem",
    "Fact",
    "IGNORE_INDEX",
    "KnowledgeWorld",
    "MathProblem",
    "Query",
    "SPECIAL_TOKENS",
    "SeqLenDistribution",
    "SyntheticDataset",
    "Vocabulary",
    "build_benchmark_suite",
    "build_commonsense15k",
    "build_gsm8k",
    "build_hellaswag",
    "build_math14k",
    "build_pretraining_corpus",
    "build_vocabulary",
    "collate",
    "empirical_median",
]


__getattr__, __dir__ = lazy_exports(
    globals(), _LAZY, ("dataloader", "datasets", "distributions", "tokenizer", "world")
)
