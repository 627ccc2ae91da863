"""Golden loss curves: the training stack's bit-identity contract.

Both tiny models train from seed 1 with the ``finetune-tiny`` benchmark's
setup (sparse QLoRA Mixtral with gradient checkpointing, sparse
BlackMamba full fine-tuning, queries cut at 48 tokens, batch 16, AdamW).
Their first losses must equal ``tests/data/golden_loss_curves.json``
bit for bit. An op rewrite that reorders a single floating-point
addition anywhere in either model's forward, backward or optimizer step
shows up here within a few steps. The golden was recorded before the
fused QLoRA projection op existed and is never regenerated to make a
change pass.

To print the curves of the current tree::

    PYTHONPATH=src python tests/test_loss_curves.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

GOLDEN = Path(__file__).parent / "data" / "golden_loss_curves.json"
SEED = 1
STEPS = 12
CUTOFF_LEN = 48
BATCH_SIZE = 16
LEARNING_RATES = {"mixtral": 8e-3, "blackmamba": 3e-3}


def finetune_tiny_losses(seed: int = SEED, steps: int = STEPS) -> Dict[str, List[float]]:
    """The first ``steps`` training losses of each tiny model."""
    from repro.data import DataLoader, build_benchmark_suite
    from repro.models import BLACKMAMBA_TINY, MIXTRAL_TINY, BlackMambaModel, MixtralModel, convert_to_qlora
    from repro.nn import cross_entropy
    from repro.optim import AdamW

    suite = build_benchmark_suite(seed=seed, train_size=512, eval_size=40, length_scale=0.2)
    train = suite.commonsense15k
    train = dataclasses.replace(train, queries=[q for q in train.queries if q.length <= CUTOFF_LEN])
    rng = np.random.default_rng(seed)
    mixtral = MixtralModel(MIXTRAL_TINY, finetune_mode="full", rng=rng)
    mixtral.set_sparsity(dense=False)
    convert_to_qlora(mixtral, rng=rng)
    mamba = BlackMambaModel(BLACKMAMBA_TINY, rng=rng)
    mamba.set_sparsity(dense=False)
    curves = {}
    for name, model in (("mixtral", mixtral), ("blackmamba", mamba)):
        model.train()
        optimizer = AdamW([p for p in model.parameters() if p.requires_grad], lr=LEARNING_RATES[name])
        batches = iter(DataLoader(train, batch_size=BATCH_SIZE, shuffle=True, drop_last=True, seed=seed))
        losses = []
        for _ in range(steps):
            batch = next(batches)
            loss = cross_entropy(model(batch.input_ids), batch.labels)
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            losses.append(float(loss.item()))
        curves[name] = losses
    return curves


def test_loss_curves_match_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["seed"], golden["steps"]) == (SEED, STEPS)
    curves = finetune_tiny_losses()
    for name in ("mixtral", "blackmamba"):
        # float.hex names every bit, so a mismatch prints where it starts.
        assert [v.hex() for v in curves[name]] == [v.hex() for v in golden[name]], name


if __name__ == "__main__":
    print(json.dumps({"seed": SEED, "steps": STEPS, **finetune_tiny_losses()}, indent=1))
