"""Deterministic word-level tokenizer for the synthetic datasets.

The vocabulary is constructed from the synthetic grammar (entities,
relations, attribute values, numbers, operators, filler words) rather than
learned, so every experiment is reproducible without external files. The
layout is stable across runs: special tokens first, then each category in
a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"
ANSWER = "<ans>"

SPECIAL_TOKENS = (PAD, BOS, EOS, SEP, ANSWER)


@dataclass
class Vocabulary:
    """Bidirectional token <-> id mapping with category bookkeeping."""

    token_to_id: Dict[str, int] = field(default_factory=dict)
    id_to_token: List[str] = field(default_factory=list)
    categories: Dict[str, List[int]] = field(default_factory=dict)

    def add(self, token: str, category: str = "misc") -> int:
        if token in self.token_to_id:
            return self.token_to_id[token]
        token_id = len(self.id_to_token)
        self.token_to_id[token] = token_id
        self.id_to_token.append(token)
        self.categories.setdefault(category, []).append(token_id)
        return token_id

    def add_many(self, tokens: Sequence[str], category: str) -> List[int]:
        return [self.add(token, category) for token in tokens]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        try:
            return [self.token_to_id[token] for token in tokens]
        except KeyError as exc:
            raise KeyError(f"unknown token {exc.args[0]!r}") from exc

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self.id_to_token[int(i)] for i in ids]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def answer_id(self) -> int:
        return self.token_to_id[ANSWER]


def build_vocabulary(
    num_entities: int = 16,
    num_relations: int = 4,
    num_values: int = 16,
    max_number: int = 60,
    num_filler: int = 320,
) -> Vocabulary:
    """Construct the shared vocabulary used by all four synthetic datasets.

    Default sizes keep the total under 512 ids so the tiny model configs
    (vocab_size=512) can embed every token.
    """
    vocab = Vocabulary()
    for token in SPECIAL_TOKENS:
        vocab.add(token, "special")
    vocab.add_many([f"ent{i}" for i in range(num_entities)], "entity")
    vocab.add_many([f"rel{i}" for i in range(num_relations)], "relation")
    vocab.add_many([f"val{i}" for i in range(num_values)], "value")
    vocab.add_many([f"n{i}" for i in range(max_number + 1)], "number")
    vocab.add_many(["plus", "minus", "times", "equals"], "operator")
    vocab.add_many([f"w{i}" for i in range(num_filler)], "filler")
    return vocab
