"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_benchmark_suite, build_pretraining_corpus


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


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: drives the numpy training stack end to end (tens of seconds)")
