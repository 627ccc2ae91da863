"""Unified scenario engine (S14) — first-class sweeps over the
characterization space.

The paper's workflow is sweep -> fit -> project. This package makes the
sweep a first-class object:

* :class:`Scenario` — a frozen, hashable point of the (model, dataset,
  GPU, density, batch, seq_len, overrides) space;
* :class:`ScenarioGrid` — declarative enumeration (cartesian products,
  batch sweeps, filters);
* :class:`SimulationCache` — thread-safe, in-memory ``simulate_step``
  traces keyed by scenario, plus derived results, with hit/miss
  accounting and an optional LRU bound;
* :class:`SingleFlight` — the one single-flight primitive: the cache's
  concurrent misses and the planning service's identical concurrent
  requests each run one computation;
* :class:`SweepRunner` — serial, deterministic grid execution into
  :class:`SweepPoint` results.

Every experiment, the Eq. 2 fitting helpers, the cost model and the
planners run their sweeps through this engine, so one process simulates
each distinct point exactly once no matter how many consumers ask for
it. The engine sits below its consumers: it imports none of
``repro.experiments``, ``repro.cluster``, ``repro.spot`` or
``repro.service`` (the ``import-layering`` lint rule holds it there).
"""

from .cache import (
    CacheStats,
    SimulationCache,
    default_cache,
    reset_default_cache,
    resolve_cache,
)
from .grid import ScenarioGrid
from .runner import SweepPoint, SweepRunner
from .scenario import Scenario, canonical_value, freeze_overrides
from .singleflight import SingleFlight

__all__ = [
    "CacheStats",
    "Scenario",
    "ScenarioGrid",
    "SimulationCache",
    "SingleFlight",
    "SweepPoint",
    "SweepRunner",
    "canonical_value",
    "default_cache",
    "freeze_overrides",
    "reset_default_cache",
    "resolve_cache",
]
