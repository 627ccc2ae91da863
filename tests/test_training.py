"""Tests for the fine-tuning harness: trainer, evaluation, load balance."""

import numpy as np
import pytest

from repro.models import BLACKMAMBA_TINY, BlackMambaModel, MIXTRAL_TINY, MixtralModel
from repro.training import (
    FineTuner,
    evaluate,
    evaluate_choice,
    evaluate_exact,
    measure_load_distribution,
    pretrain_language_model,
)
from repro.profiling import measure_throughput, profile_training_stages


@pytest.fixture(scope="module")
def small_mixtral():
    return MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False,
                        rng=np.random.default_rng(5))


class TestFineTuner:
    def test_loss_decreases_over_epochs(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        tuner = FineTuner(model, tiny_suite.commonsense15k, batch_size=16, learning_rate=3e-3)
        history = tuner.train(num_epochs=3)
        assert history.losses[-1] < history.losses[0]

    def test_history_metrics_populated(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        tuner = FineTuner(model, tiny_suite.commonsense15k.subset(32), batch_size=8, learning_rate=1e-3)
        history = tuner.train(num_epochs=2, eval_fn=lambda: 0.5)
        assert len(history.epochs) == 2
        first = history.epochs[0]
        assert first.num_queries == 32
        assert first.queries_per_second > 0
        assert first.eval_accuracy == 0.5
        assert history.best_accuracy() == 0.5

    def test_aux_loss_weight_enables_tracking(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        FineTuner(model, tiny_suite.commonsense15k.subset(16), batch_size=8,
                  learning_rate=1e-3, aux_loss_weight=0.01)
        assert all(m.track_aux_loss for m in model.moe_layers())


class TestPretraining:
    def test_pretrain_reduces_lm_loss(self, tiny_suite, tiny_corpus, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        first = pretrain_language_model(model, tiny_corpus, steps=1, batch_size=16)
        last = pretrain_language_model(model, tiny_corpus, steps=40, batch_size=16)
        assert last < first

    def test_aux_loss_disabled_after_pretrain(self, tiny_corpus, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        pretrain_language_model(model, tiny_corpus, steps=2, batch_size=8, aux_loss_weight=0.01)
        assert all(not m.track_aux_loss for m in model.moe_layers())


class TestEvaluation:
    def test_choice_accuracy_range(self, tiny_suite, small_mixtral):
        acc = evaluate_choice(small_mixtral, tiny_suite.hellaswag, limit=20)
        assert 0.0 <= acc <= 1.0

    def test_untrained_model_near_chance_on_choices(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False,
                             rng=np.random.default_rng(99))
        acc = evaluate_choice(model, tiny_suite.hellaswag, limit=60)
        assert acc < 0.6  # 4-way chance is 0.25; random model must not ace it

    def test_exact_untrained_near_zero(self, tiny_suite, small_mixtral):
        acc = evaluate_exact(small_mixtral, tiny_suite.gsm8k, limit=40)
        assert acc < 0.25

    def test_dispatch_by_kind(self, tiny_suite, small_mixtral):
        assert isinstance(evaluate(small_mixtral, tiny_suite.hellaswag, limit=5), float)
        assert isinstance(evaluate(small_mixtral, tiny_suite.gsm8k, limit=5), float)

    def test_restores_training_mode(self, tiny_suite, small_mixtral):
        small_mixtral.train()
        evaluate_choice(small_mixtral, tiny_suite.hellaswag, limit=3)
        assert small_mixtral.training

    def test_empty_dataset_raises(self, tiny_suite, small_mixtral):
        empty = tiny_suite.hellaswag.subset(0)
        with pytest.raises(ValueError):
            evaluate_choice(small_mixtral, empty)

    @pytest.mark.parametrize("evaluator", [evaluate_choice, evaluate_exact, evaluate])
    def test_empty_dataset_keeps_training_mode(self, tiny_suite, small_mixtral, evaluator):
        small_mixtral.train()
        with pytest.raises(ValueError):
            evaluator(small_mixtral, tiny_suite.hellaswag.subset(0))
        assert small_mixtral.training

    @pytest.mark.parametrize("evaluator", [evaluate_choice, evaluate_exact])
    def test_failing_forward_restores_training_mode(self, tiny_suite, evaluator):
        class Exploding(MixtralModel):
            def forward(self, input_ids):
                assert not self.training, "evaluation must run in eval mode"
                raise RuntimeError("forward failed")

        model = Exploding(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False,
                          rng=np.random.default_rng(5))
        model.train()
        with pytest.raises(RuntimeError, match="forward failed"):
            evaluator(model, tiny_suite.hellaswag, limit=3)
        assert model.training


class TestLoadBalance:
    def test_measurement_shapes(self, tiny_suite, small_mixtral):
        dist = measure_load_distribution(small_mixtral, tiny_suite.commonsense15k, num_queries=40)
        assert dist.tokens_per_query.shape == (8,)
        assert dist.num_queries == 40

    def test_shares_sum_to_one(self, tiny_suite, small_mixtral):
        dist = measure_load_distribution(small_mixtral, tiny_suite.commonsense15k, num_queries=40)
        assert dist.normalized_shares.sum() == pytest.approx(1.0)

    def test_variance_zero_iff_uniform(self):
        from repro.training import LoadDistribution

        uniform = LoadDistribution(tokens_per_query=np.full(8, 5.0), num_queries=10)
        skewed = LoadDistribution(tokens_per_query=np.array([40, 0, 0, 0, 0, 0, 0, 0.0]), num_queries=10)
        assert uniform.variance == 0.0
        assert skewed.variance > 0
        assert uniform.imbalance_ratio() == pytest.approx(1.0)
        assert skewed.imbalance_ratio() == pytest.approx(8.0)

    def test_tokens_per_query_scale(self, tiny_suite, small_mixtral):
        """Sparse top-2 routing: per-expert loads must sum to ~2x tokens/query."""
        small_mixtral.set_sparsity(dense=False)
        dist = measure_load_distribution(small_mixtral, tiny_suite.commonsense15k, num_queries=50)
        mean_len = tiny_suite.commonsense15k.subset(50).seq_lengths().mean()
        assert dist.tokens_per_query.sum() == pytest.approx(2 * mean_len, rel=0.2)


class TestWallclockProfiling:
    def test_stage_timings_positive(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        timings = profile_training_stages(model, tiny_suite.commonsense15k.subset(32),
                                          batch_size=8, num_steps=4)
        assert timings.steps == 4
        assert timings.forward > 0 and timings.backward > 0 and timings.optimizer > 0
        shares = timings.shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_backward_is_substantial(self, tiny_suite, rng):
        """Backward is a major stage. (On the numpy substrate, forward
        includes Python graph construction, so the GPU-world `backward >
        forward` relation is not guaranteed here — the simulator tests pin
        that claim instead.)"""
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        timings = profile_training_stages(model, tiny_suite.commonsense15k.subset(64),
                                          batch_size=16, num_steps=4)
        assert timings.backward > 0.4 * timings.forward

    def test_measured_throughput_positive(self, tiny_suite, rng):
        model = MixtralModel(MIXTRAL_TINY, finetune_mode="full", gradient_checkpointing=False, rng=rng)
        qps = measure_throughput(model, tiny_suite.commonsense15k, batch_size=16, num_queries=48)
        assert qps > 0
