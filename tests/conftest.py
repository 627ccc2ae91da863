"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_benchmark_suite, build_pretraining_corpus
from repro.tensor import Function, ops


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_suite():
    """Small shared dataset suite; session-scoped because construction is
    the slow part and datasets are immutable."""
    return build_benchmark_suite(train_size=300, eval_size=60, length_scale=0.2)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_suite):
    return build_pretraining_corpus(tiny_suite.vocab, size=300)


def finite_difference(f, array: np.ndarray, index, eps: float = 1e-6) -> float:
    """Central finite difference of scalar-valued ``f`` wrt one element."""
    original = array[index]
    array[index] = original + eps
    up = f()
    array[index] = original - eps
    down = f()
    array[index] = original
    return (up - down) / (2 * eps)


@pytest.fixture
def fd():
    return finite_difference


class _ScanDiag(Function):
    """``h_t = decay_t * h_{t-1} + x_t`` over ``(batch, length, channels)``,
    one time step at a time, with the adjoint recurrence as its backward."""

    def forward(self, decay, x):
        h = np.zeros_like(x)
        state = np.zeros_like(x[:, 0])
        for t in range(x.shape[1]):
            state = decay[:, t] * state + x[:, t]
            h[:, t] = state
        self.save_for_backward(decay, h)
        return h

    def backward(self, grad_out):
        decay, h = self.saved
        grad_x = np.zeros_like(h)
        grad_decay = np.zeros_like(decay)
        adjoint = np.zeros_like(h[:, 0])
        for t in range(h.shape[1] - 1, -1, -1):
            adjoint = grad_out[:, t] + adjoint
            grad_x[:, t] = adjoint
            if t > 0:
                grad_decay[:, t] = adjoint * h[:, t - 1]
            adjoint = adjoint * decay[:, t]
        return grad_decay, grad_x


def ssm_scan_composite(u, delta, a, b, c):
    """The selective scan spelled as separate autograd ops: the reference
    ``ops.ssm_scan`` must match."""
    batch, length, inner = u.shape
    state = a.shape[1]
    delta_4d = delta.reshape(batch, length, inner, 1)
    decay = ops.exp(delta_4d * a)
    driven = delta_4d * b.reshape(batch, length, 1, state) * u.reshape(batch, length, inner, 1)
    hidden = _ScanDiag.apply(
        decay.reshape(batch, length, inner * state),
        driven.reshape(batch, length, inner * state),
    ).reshape(batch, length, inner, state)
    return (hidden * c.reshape(batch, length, 1, state)).sum(axis=-1)


@pytest.fixture(scope="session")
def ssm_reference():
    return ssm_scan_composite


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: drives the numpy training stack end to end (tens of seconds)")
