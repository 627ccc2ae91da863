"""Compliant twin: the engine imports the substrates and telemetry below
it, never the experiments, planners or service above it."""

from ..gpu.trace import StepTrace
from ..telemetry.tracer import resolve_tracer


def run(grid, tracer=None):
    return resolve_tracer(tracer), StepTrace, grid
