"""Tests for the causal-LM cross-entropy loss."""

import numpy as np
import pytest

from repro.nn import IGNORE_INDEX, cross_entropy, token_accuracy
from repro.tensor import Tensor, ops


def full_row_cross_entropy(logits, targets):
    """The loss as it was before masked rows were dropped: log-softmax of
    every row, then a gather of the kept ones."""
    targets = np.asarray(targets)
    if logits.ndim == 3:
        logits = logits.reshape(-1, logits.shape[-1])
        targets = targets.reshape(-1)
    kept_rows = np.nonzero(targets != IGNORE_INDEX)[0]
    log_probs = ops.log_softmax(logits, axis=-1)
    return -log_probs[kept_rows, targets[kept_rows]].sum() / kept_rows.size


def masked_targets(rng, shape, vocab, kept):
    """Random targets with only the flat positions in ``kept`` unmasked
    (all of them when ``kept`` is None)."""
    targets = rng.integers(0, vocab, shape)
    if kept is not None:
        flat = np.full(targets.size, IGNORE_INDEX)
        flat[kept] = targets.reshape(-1)[kept]
        targets = flat.reshape(shape)
    return targets


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.standard_normal((4, 5))
        targets = np.array([0, 2, 4, 1])
        loss = cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_uniform_logits_give_log_vocab(self):
        logits = np.zeros((3, 10))
        loss = cross_entropy(Tensor(logits), np.array([1, 2, 3])).item()
        assert loss == pytest.approx(np.log(10), rel=1e-9)

    def test_ignore_index_masks_positions(self, rng):
        logits = rng.standard_normal((4, 5))
        targets = np.array([0, IGNORE_INDEX, IGNORE_INDEX, 1])
        loss_masked = cross_entropy(Tensor(logits), targets).item()
        loss_pair = cross_entropy(Tensor(logits[[0, 3]]), np.array([0, 1])).item()
        assert loss_masked == pytest.approx(loss_pair, rel=1e-9)

    def test_3d_input_flattened(self, rng):
        logits = rng.standard_normal((2, 3, 5))
        targets = rng.integers(0, 5, (2, 3))
        loss3 = cross_entropy(Tensor(logits), targets).item()
        loss2 = cross_entropy(Tensor(logits.reshape(6, 5)), targets.reshape(6)).item()
        assert loss3 == pytest.approx(loss2, rel=1e-12)

    def test_all_masked_raises(self, rng):
        logits = rng.standard_normal((2, 5))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(logits), np.full(2, IGNORE_INDEX))

    def test_wrong_rank_raises(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.standard_normal(5)), np.array([1]))

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        targets = np.array([1, 3])
        cross_entropy(logits, targets).backward()
        shifted = logits.data - logits.data.max(-1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(-1, keepdims=True)
        onehot = np.eye(4)[targets]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 2, rtol=1e-8)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 4), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2])).item()
        assert loss < 1e-6


    @pytest.mark.parametrize(
        "shape, kept",
        [((12, 7), [1, 4, 5, 11]), ((3, 5, 7), [0, 6, 7, 13]), ((3, 5, 7), [9]), ((3, 5, 7), None)],
        ids=["2d", "3d", "one-row", "all-rows"],
    )
    def test_matches_full_row_loss_bit_for_bit(self, rng, shape, kept):
        data = rng.standard_normal(shape) * 3
        targets = masked_targets(rng, shape[:-1], shape[-1], kept)
        results = []
        for loss_fn in (cross_entropy, full_row_cross_entropy):
            logits = Tensor(data, requires_grad=True)
            loss = loss_fn(logits, targets)
            loss.backward()
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_out_of_range_target_raises(self, rng, bad):
        targets = np.array([0, bad, IGNORE_INDEX, 4])
        with pytest.raises(ValueError, match=rf"target {bad} "):
            cross_entropy(Tensor(rng.standard_normal((4, 5))), targets)

    def test_vocab_edges_are_in_range(self, rng):
        cross_entropy(Tensor(rng.standard_normal((2, 5))), np.array([0, 4]))


class TestTokenAccuracy:
    def test_all_correct(self):
        logits = np.eye(4)[np.array([0, 1, 2])] * 10
        assert token_accuracy(Tensor(logits), np.array([0, 1, 2])) == 1.0

    def test_ignores_masked(self):
        logits = np.eye(3)[np.array([0, 1])] * 10
        targets = np.array([0, IGNORE_INDEX])
        assert token_accuracy(Tensor(logits), targets) == 1.0

    def test_all_masked_returns_zero(self):
        logits = np.zeros((2, 3))
        assert token_accuracy(Tensor(logits), np.full(2, IGNORE_INDEX)) == 0.0
