"""Bulk execution of scenario grids.

:class:`SweepRunner` turns a grid into a list of :class:`SweepPoint`
results, one per scenario in grid order. It runs serially against one
:class:`SimulationCache`: a ``simulate_step`` call costs well under a
millisecond, so no thread or process pool pays for its start-up, and
duplicate points collapse into one simulation through the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..gpu.trace import StepTrace
from ..telemetry.tracer import Tracer, resolve_tracer
from .cache import SimulationCache, resolve_cache
from .grid import ScenarioGrid
from .scenario import Scenario


@dataclass(frozen=True)
class SweepPoint:
    """One executed scenario: its grid position, inputs and trace.

    A *degenerate* trace — zero, negative or non-finite step time, as a
    hand-built or corrupted trace can produce — is reported consistently
    as "no throughput": ``queries_per_second`` is ``0.0`` and
    ``total_seconds`` is ``inf``, the same convention
    :func:`repro.core.cost.wall_clock_hours` maps zero throughput to, so
    downstream cost math never divides by zero or propagates NaN.
    """

    index: int
    scenario: Scenario
    trace: StepTrace

    @property
    def label(self) -> str:
        return self.scenario.label()

    def _step_seconds(self) -> float:
        """The trace's step time, or ``None``-like sentinel handling for
        degenerate values (non-positive or non-finite)."""
        total = self.trace.total_seconds
        return total if math.isfinite(total) and total > 0.0 else float("nan")

    @property
    def queries_per_second(self) -> float:
        total = self._step_seconds()
        if math.isnan(total):
            return 0.0
        return self.trace.batch_size / total

    @property
    def total_seconds(self) -> float:
        total = self._step_seconds()
        if math.isnan(total):
            return float("inf")
        return total


class SweepRunner:
    """Executes scenario grids against a (shared) simulation cache."""

    def __init__(
        self,
        cache: Optional[SimulationCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cache = resolve_cache(cache)
        self.tracer = resolve_tracer(tracer)

    def run(self, grid: ScenarioGrid) -> List[SweepPoint]:
        """Simulate every scenario; results are in grid order. The run
        is traced as one ``sweep.run`` span."""
        scenarios = list(grid)
        with self.tracer.span("sweep.run", cells=len(scenarios)):
            return [
                SweepPoint(index=i, scenario=s, trace=self.cache.simulate(s))
                for i, s in enumerate(scenarios)
            ]
