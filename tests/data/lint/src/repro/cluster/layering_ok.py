"""Compliant twin: the planner imports what every plan runs at module
level, the trainable models and telemetry exporters inside the
functions that use them, and the fit code only for type checkers."""

from typing import TYPE_CHECKING

from ..models.registry import get_model_spec
from ..telemetry.tracer import resolve_tracer

if TYPE_CHECKING:
    from ..core.throughput import ThroughputModel


def build(key, rng=None):
    from ..models.mixtral import MixtralModel

    return MixtralModel, get_model_spec(key), rng


def export(tracer=None):
    from ..telemetry.export import telemetry_block

    return telemetry_block, resolve_tracer(tracer)


def fit(model: "ThroughputModel") -> "ThroughputModel":
    return model
