"""Workload ``finetune-tiny``: the numpy fine-tuning stack, in process.

From a seeded random init, with no pre-training:

* QLoRA fine-tuning of sparse ``MIXTRAL_TINY`` (NF4 experts and router,
  rank-16 adapters, gradient checkpointing as ``convert_to_qlora`` sets
  it) on the commonsense training set, cut off at ``CUTOFF_LEN`` tokens
  so the longest batch, and with it the step-time tail and peak memory,
  does not depend on the seed;
* full fine-tuning of sparse ``BLACKMAMBA_TINY`` on the same data;
* one ``evaluate`` pass of each model over held-out HellaSwag items.

Steps alternate between the two models until the time is up, so machine
noise lands on both alike; each model takes at least ``MIN_STEPS``.
``final_loss`` is the mean Mixtral loss over steps
``[MIN_STEPS - LOSS_WINDOW, MIN_STEPS)``, fixed work, so a seed repeats
it exactly. The planning layers are idle here. The two models split the
layers: Mixtral alone runs attention, NF4 dequantization and QLoRA,
BlackMamba alone runs the Mamba mixer.

Set-up is import + dataset build + model init + QLoRA conversion, in a
fresh interpreter (``--setup-probe``), ``SETUP_REPEATS`` times; ``setup_s`` is the
median.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Iterator, List

from common import SETUP_REPEATS, RunRecord, Scratch, p50, p95, run_process

TRAIN_SIZE = 512
EVAL_ITEMS = 40
LENGTH_SCALE = 0.2
CUTOFF_LEN = 48  # drop longer training queries, as fine-tuning frameworks do
BATCH_SIZE = 16
MIN_STEPS = 100  # per model: 200 steps leave ten beyond the p95 tail
LOSS_WINDOW = 10
EVAL_RESERVE_S = 2.0  # of --seconds, kept for the evaluation pass
LEARNING_RATES = {"mixtral": 8e-3, "blackmamba": 3e-3}


@dataclass
class Trainee:
    """One model with its optimizer, data stream and per-step record."""

    name: str
    model: object
    optimizer: object
    batches: Iterator
    losses: List[float] = field(default_factory=list)
    step_s: List[float] = field(default_factory=list)
    phases: Dict[str, List[float]] = field(
        default_factory=lambda: {"data": [], "forward": [], "backward": [], "optimizer": []}
    )
    tokens: int = 0

    def step(self, on_phase: Callable[[str], None] = lambda phase: None) -> float:
        """One training step, timed by phase; returns the loss.
        ``on_phase(name)`` is called as each phase starts, and with
        ``"end"`` after the last."""
        from repro.nn import cross_entropy

        on_phase("data")
        t0 = time.perf_counter()
        batch = next(self.batches)
        on_phase("forward")
        t1 = time.perf_counter()
        loss = cross_entropy(self.model(batch.input_ids), batch.labels)
        on_phase("backward")
        t2 = time.perf_counter()
        loss.backward()
        on_phase("optimizer")
        t3 = time.perf_counter()
        self.optimizer.step()
        self.optimizer.zero_grad()
        t4 = time.perf_counter()
        on_phase("end")
        value = float(loss.item())
        for name, seconds in zip(self.phases, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            self.phases[name].append(seconds)
        self.step_s.append(t4 - t0)
        self.losses.append(value)
        self.tokens += batch.num_tokens
        return value


def _cycle(loader) -> Iterator:
    while True:
        yield from loader


def build_suite(seed: int):
    from repro.data import build_benchmark_suite

    return build_benchmark_suite(
        seed=seed, train_size=TRAIN_SIZE, eval_size=EVAL_ITEMS, length_scale=LENGTH_SCALE
    )


def setup(seed: int):
    """Dataset, both models and their optimizers: ``(suite, trainees)``."""
    import numpy as np

    from repro.data import DataLoader
    from repro.models import (
        BLACKMAMBA_TINY,
        MIXTRAL_TINY,
        BlackMambaModel,
        MixtralModel,
        convert_to_qlora,
    )
    from repro.optim import AdamW

    suite = build_suite(seed)
    train = suite.commonsense15k
    train = dataclasses.replace(train, queries=[q for q in train.queries if q.length <= CUTOFF_LEN])
    rng = np.random.default_rng(seed)
    mixtral = MixtralModel(MIXTRAL_TINY, finetune_mode="full", rng=rng)
    mixtral.set_sparsity(dense=False)
    convert_to_qlora(mixtral, rng=rng)
    mamba = BlackMambaModel(BLACKMAMBA_TINY, rng=rng)
    mamba.set_sparsity(dense=False)
    trainees = []
    for name, model in (("mixtral", mixtral), ("blackmamba", mamba)):
        model.train()
        params = [p for p in model.parameters() if p.requires_grad]
        loader = DataLoader(train, batch_size=BATCH_SIZE, shuffle=True, drop_last=True, seed=seed)
        trainees.append(Trainee(name, model, AdamW(params, lr=LEARNING_RATES[name]), _cycle(loader)))
    return suite, trainees


def evaluate(trainee: Trainee, suite) -> float:
    """One evaluation pass; returns its wall seconds."""
    from repro.training import evaluate as evaluate_model

    start = time.perf_counter()
    evaluate_model(trainee.model, suite.hellaswag, limit=EVAL_ITEMS)
    return time.perf_counter() - start


def window_loss(losses: List[float], end: int) -> float:
    """Mean loss over the ``LOSS_WINDOW`` steps before step ``end``."""
    return sum(losses[end - LOSS_WINDOW:end]) / LOSS_WINDOW


def check_losses(record: RunRecord, trainee: Trainee) -> None:
    losses = trainee.losses
    record.check(all(math.isfinite(v) for v in losses), f"{trainee.name}: non-finite loss")
    first, last = window_loss(losses, LOSS_WINDOW), window_loss(losses, MIN_STEPS)
    record.check(last < first, f"{trainee.name}: loss did not fall ({first:.4f} -> {last:.4f})")


def measure_setup(seed: int) -> List[float]:
    with Scratch() as cwd:
        walls = []
        for _ in range(SETUP_REPEATS):
            proc = run_process([__file__, "--setup-probe", str(seed)], cwd)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr[-400:]!r}")
            walls.append(proc.wall_s)
    return walls


def run(seed: int, seconds: float) -> RunRecord:
    record = RunRecord("finetune-tiny", seed)
    setups = measure_setup(seed)
    record.metric("setup_s", median(setups), "s", len(setups))
    suite, trainees = setup(seed)

    deadline = time.perf_counter() + max(0.0, seconds - EVAL_RESERVE_S)
    while min(len(t.losses) for t in trainees) < MIN_STEPS or time.perf_counter() < deadline:
        for trainee in trainees:
            trainee.step()
    eval_s = [evaluate(trainee, suite) for trainee in trainees]

    for trainee in trainees:
        record.attempted += len(trainee.losses)  # one operation per step
        check_losses(record, trainee)
        record.output(f"loss/{trainee.name}", repr(trainee.losses[:MIN_STEPS]).encode())
        record.figure(f"{trainee.name}_tokens_per_s", trainee.tokens / sum(trainee.step_s),
                      "tokens/s", len(trainee.step_s))
    record.attempted += len(eval_s)
    steps = [s for t in trainees for s in t.step_s]
    record.metric("p50_ms", 1000 * sum(p50(t.step_s) for t in trainees) / len(trainees), "ms", len(steps))
    record.metric("tail_ms", 1000 * p95(steps), "ms", len(steps))
    record.metric("throughput_per_s", sum(t.tokens for t in trainees) / sum(steps), "1/s", len(steps))
    record.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    record.figure("eval_queries_per_s", EVAL_ITEMS * len(eval_s) / sum(eval_s), "queries/s", len(eval_s))
    record.figure("final_loss", window_loss(trainees[0].losses, MIN_STEPS), "nats", LOSS_WINDOW)
    record.figure("error_rate", record.failed / max(1, record.attempted), "ratio", record.attempted)
    return record


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    setup(int(sys.argv[2]))
