"""Tests for AdamW."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import AdamW


def make_param(value=1.0, grad=0.5):
    p = Parameter(np.array([value]))
    p.grad = np.array([grad])
    return p


class TestAdamW:
    def test_first_step_magnitude_is_lr(self):
        """With bias correction, step 1 moves by ~lr regardless of grad scale."""
        p = make_param(grad=7.3)
        AdamW([p], lr=0.01).step()
        assert abs(1.0 - p.data[0]) == pytest.approx(0.01, rel=1e-4)

    def test_matches_reference_two_steps(self):
        p = make_param(value=1.0, grad=0.5)
        opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step()
        p.grad = np.array([0.2])
        opt.step()
        # Reference computation.
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        x = 1.0 - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        m = 0.9 * m + 0.1 * 0.2
        v = 0.999 * v + 0.001 * 0.04
        x -= 0.1 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
        np.testing.assert_allclose(p.data, [x], rtol=1e-9)

    def test_weight_decay_decoupled(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([0.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        # Gradient is zero, so only decay applies: 2 * (1 - 0.1*0.5)
        np.testing.assert_allclose(p.data, [2.0 * 0.95])

    def test_skips_none_grad(self):
        """A parameter without a gradient (a sparse MoE expert that routed
        no tokens) is left untouched and gets no moment buffers."""
        idle = Parameter(np.array([1.0]))
        live = make_param()
        opt = AdamW([idle, live], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(idle.data, [1.0])
        assert id(idle) not in opt._moment1 and id(idle) not in opt._moment2
        assert id(live) in opt._moment1

    def test_only_trainable_params_collected(self):
        frozen = Parameter(np.ones(3), requires_grad=False)
        live = make_param()
        opt = AdamW([frozen, live], lr=0.1)
        assert opt.num_optimized_parameters() == 1

    def test_no_trainable_raises(self):
        frozen = Parameter(np.ones(3), requires_grad=False)
        with pytest.raises(ValueError):
            AdamW([frozen], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            AdamW([make_param()], lr=0.0)

    def test_state_bytes(self):
        p = Parameter(np.ones(10))
        p.grad = np.ones(10)
        opt = AdamW([p], lr=0.1)
        assert opt.state_bytes() == 2 * 4 * 10

    def test_zero_grad(self):
        p = make_param()
        opt = AdamW([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None
