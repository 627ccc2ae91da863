"""Unified scenario engine (S14) — first-class sweeps over the
characterization space.

The paper's workflow is sweep -> fit -> project. This package makes the
sweep a first-class object:

* :class:`Scenario` — a frozen, hashable point of the (model, dataset,
  GPU, density, batch, seq_len, overrides) space;
* :class:`ScenarioGrid` — declarative enumeration (cartesian products,
  batch sweeps, filters, named presets);
* :class:`SimulationCache` — thread-safe, in-memory ``simulate_step``
  traces keyed by scenario, with hit/miss accounting and an optional
  LRU bound;
* :class:`SweepRunner` — serial, deterministic grid execution feeding
  experiment results.

Every experiment, the Eq. 2 fitting helpers and the cost model run their
sweeps through this engine, so one process simulates each distinct point
exactly once no matter how many consumers ask for it.
"""

from .cache import (
    CacheStats,
    SimulationCache,
    default_cache,
    reset_default_cache,
    resolve_cache,
)
from .grid import ScenarioGrid, preset, preset_names, register_preset
from .runner import SweepPoint, SweepRunner
from .scenario import Scenario, canonical_value, freeze_overrides
from .singleflight import InFlightMap, SingleFlight

__all__ = [
    "CacheStats",
    "InFlightMap",
    "Scenario",
    "ScenarioGrid",
    "SimulationCache",
    "SingleFlight",
    "SweepPoint",
    "SweepRunner",
    "canonical_value",
    "default_cache",
    "freeze_overrides",
    "preset",
    "preset_names",
    "register_preset",
    "reset_default_cache",
    "resolve_cache",
]
