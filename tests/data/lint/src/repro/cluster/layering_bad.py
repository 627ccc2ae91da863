"""Violation: a planning module importing, at module level, the training
stack and telemetry's run store, which no plan runs, and the fit code in
the ``else:`` of a ``TYPE_CHECKING`` test, which runs at import time."""

import typing

from ..nn.linear import Linear
from ..telemetry.runstore import RunStore

if typing.TYPE_CHECKING:
    from ..core.throughput import ThroughputModel
else:
    from ..core.throughput import ThroughputModel


def plan(grid):
    return Linear, RunStore, ThroughputModel, grid
