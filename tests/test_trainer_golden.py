"""Golden trainer losses: ``pretrain_language_model`` and ``FineTuner``
reproduce their recorded losses bit for bit.

Each tiny model is pre-trained from a fixed seed with the router
balancing term on (Mixtral-tiny at fig11's +5e-2, BlackMamba-tiny at its
-0.15), through three successive ``pretrain_language_model`` calls of 1,
2 and 4 steps; the 4-step call wraps past the end of the 3-batch corpus.
Mixtral-tiny is then converted to QLoRA and BlackMamba-tiny stays fully
trainable, and each runs one ``FineTuner`` epoch. The returned losses
and the epoch's mean loss must equal ``tests/data/golden_trainer_losses.json``
by ``float.hex``. The golden was recorded before both loops shared one
step function and is never regenerated to make a change pass.

To print the losses of the current tree::

    PYTHONPATH=src python tests/test_trainer_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

GOLDEN = Path(__file__).parent / "data" / "golden_trainer_losses.json"
SEED = 3
PRETRAIN_STEPS = (1, 2, 4)
BATCH_SIZE = 8
AUX_WEIGHTS = {"mixtral": 5e-2, "blackmamba": -0.15}
FINETUNE_LRS = {"mixtral": 8e-3, "blackmamba": 2e-3}


def trainer_losses(seed: int = SEED) -> Dict[str, Dict[str, object]]:
    """``float.hex`` of each model's pre-training and fine-tuning losses."""
    from repro.data import build_benchmark_suite, build_pretraining_corpus
    from repro.models import BLACKMAMBA_TINY, MIXTRAL_TINY, BlackMambaModel, MixtralModel, convert_to_qlora
    from repro.training import FineTuner, pretrain_language_model

    suite = build_benchmark_suite(seed=seed, train_size=32, eval_size=4, length_scale=0.2)
    corpus = build_pretraining_corpus(suite.vocab, size=3 * BATCH_SIZE)
    losses = {}
    for name in ("mixtral", "blackmamba"):
        rng = np.random.default_rng(seed)
        if name == "mixtral":
            model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", rng=rng)
        else:
            model = BlackMambaModel(BLACKMAMBA_TINY, rng=rng)
        model.set_sparsity(dense=False)
        pretrain = [
            pretrain_language_model(model, corpus, steps=steps, batch_size=BATCH_SIZE,
                                    learning_rate=3e-3, aux_loss_weight=AUX_WEIGHTS[name], seed=seed)
            for steps in PRETRAIN_STEPS
        ]
        if name == "mixtral":
            convert_to_qlora(model, rng=rng)
        tuner = FineTuner(model, suite.commonsense15k, batch_size=BATCH_SIZE,
                          learning_rate=FINETUNE_LRS[name], seed=seed)
        epoch = tuner.train_epoch(1)
        losses[name] = {
            "pretrain": [loss.hex() for loss in pretrain],
            "finetune_epoch_mean": epoch.mean_loss.hex(),
        }
    return losses


def test_trainer_losses_match_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["seed"], golden["pretrain_steps"]) == (SEED, list(PRETRAIN_STEPS))
    losses = trainer_losses()
    for name in ("mixtral", "blackmamba"):
        assert losses[name] == golden[name], name


if __name__ == "__main__":
    print(json.dumps({"seed": SEED, "pretrain_steps": list(PRETRAIN_STEPS), **trainer_losses()}, indent=1))
