"""Violation: a planning module importing, at module level, the training
stack and telemetry's run store, which no plan runs."""

from ..nn.linear import Linear
from ..telemetry.runstore import RunStore


def plan(grid):
    return Linear, RunStore, grid
