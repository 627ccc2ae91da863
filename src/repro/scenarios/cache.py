"""Memoized simulation: one trace per scenario, shared by every consumer.

``GPUSimulator.simulate_step`` rebuilds the full kernel inventory and
rooflines every kernel on each call, so before this layer existed the
same (config, batch, seq_len, density) point was re-simulated many times
across figure reproduction, Eq. 2 fitting and cost ranking.
:class:`SimulationCache` memoizes step traces by
:meth:`Scenario.key <repro.scenarios.scenario.Scenario.key>` and exposes
hit/miss counters so benchmarks (and the acceptance criterion "zero
redundant simulations on a warm report pass") can verify sharing.

A process-global default cache backs every consumer that is not handed an
explicit one, so independent experiments executed in one process share
traces. Traces are pure functions of the scenario, so cross-consumer
reuse is always sound.

The cache lives in memory only. ``stats()`` reports ``hits`` (traces
plus derived results), ``misses``, and ``simulations`` — the ground
truth "how many times did ``simulate_step`` actually run", which is what
the zero-redundant-simulation acceptance criteria assert against. A
bounded cache (``capacity=N``) drops least-recently-used entries; a
later lookup of a dropped entry simply simulates it again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..gpu.simulator import GPUSimulator, SoftwareOverhead
from ..gpu.specs import GPUSpec
from ..gpu.trace import StepTrace
from ..telemetry.metrics import MetricsRegistry
from .scenario import ModelConfig, Scenario, freeze_overrides
from .singleflight import InFlightMap


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache's accounting counters.

    ``risk_hits``/``risk_misses`` count :meth:`SimulationCache.memoize`
    traffic tagged ``kind="risk"`` (the spot planner's memoized risk
    results) separately from trace/derived traffic, so "the warm risk
    sweep recomputed nothing" is assertable without entangling the
    trace-layer counters that the zero-redundant-simulation criteria
    already pin down.

    ``evictions`` counts entries dropped by the LRU bound (see
    ``SimulationCache(capacity=...)``); it stays 0 for unbounded caches,
    which is why it defaults rather than being required.

    ``entries`` counts resident traces; ``derived_entries`` counts the
    resident results of :meth:`SimulationCache.memoize` (Eq. 2 fits,
    risk bundles, the planning service's plan-memo entries). Each is
    bounded by ``capacity`` on its own.
    """

    hits: int
    misses: int
    entries: int
    simulations: int = 0
    risk_hits: int = 0
    risk_misses: int = 0
    evictions: int = 0
    derived_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """The fraction of lookups served from memory: ``hits / lookups``."""
        return self.hits / self.lookups if self.lookups else 0.0


class SimulationCache:
    """Memoizes :meth:`GPUSimulator.simulate_step` traces by scenario key.

    Thread-safe: the planning service's request threads share one cache,
    and concurrent misses on one key collapse into a single computation.
    Each simulator instance is also cached per GPU spec so repeated
    sweeps on the same hardware reuse one simulator.

    Scenario subclasses that extend the space with axes the per-device
    step does not depend on (``repro.cluster.ClusterScenario``'s
    ``num_gpus``/``interconnect``) inherit :meth:`Scenario.key` unchanged,
    so all their variants share one memoized replica trace here.
    """

    def __init__(
        self,
        overheads: Optional[Dict[str, SoftwareOverhead]] = None,
        metrics: Optional[MetricsRegistry] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._overheads = overheads
        # None = unbounded (the CLI default: a sweep is finite). A
        # long-lived server sets a bound; the cache then drops
        # least-recently-used entries, and a later lookup recomputes
        # them. Traces and derived results are bounded independently,
        # each to `capacity` entries.
        self._capacity = capacity
        self._simulators: Dict[GPUSpec, GPUSimulator] = {}
        self._traces: Dict[Tuple, StepTrace] = {}
        self._derived: Dict[Tuple, object] = {}
        # Trace keys and derived keys live in disjoint in-flight maps: a
        # derived key that happened to equal a trace key must not make one
        # computation wait on (or mask) the other. The maps are bare
        # marker tables; this cache's _lock guards them.
        self._inflight_traces = InFlightMap()
        self._inflight_derived = InFlightMap()
        self._lock = threading.Lock()
        # The accounting counters are first-class metrics: stats() reads
        # them back out of the registry, so CacheStats and a telemetry
        # export can never disagree about what the cache did.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._simulations = self.metrics.counter("cache.simulations")
        self._risk_hits = self.metrics.counter("cache.risk_hits")
        self._risk_misses = self.metrics.counter("cache.risk_misses")
        self._evictions = self.metrics.counter("cache.evictions")
        # Trace lookup latency, split by whether the lookup was served
        # from memory or had to simulate.
        self._memory_seconds = self.metrics.histogram("cache.fetch.memory_seconds")
        self._simulated_seconds = self.metrics.histogram("cache.fetch.simulated_seconds")
        self._memoize_seconds = {
            "derived": self.metrics.histogram("cache.memoize.derived_seconds"),
            "risk": self.metrics.histogram("cache.memoize.risk_seconds"),
        }

    @property
    def capacity(self) -> Optional[int]:
        """The LRU bound (``None`` = unbounded)."""
        return self._capacity

    # ------------------------------------------------------------------
    # LRU plumbing. Both helpers are called with self._lock held — they
    # are the "check/install/evict" half of an operation whose hit/miss
    # accounting must be atomic.
    def _touch(self, key: Tuple) -> None:
        """Mark ``key`` most-recently-used (caller holds ``_lock``).
        Only bounded caches pay the reorder; unbounded ones keep the
        original single-dict-read hit path."""
        if self._capacity is not None and key in self._traces:
            self._traces[key] = self._traces.pop(key)  # repro: allow[lock-discipline] caller holds self._lock

    def _install(self, key: Tuple, trace: StepTrace) -> None:
        """Install a simulated trace (caller holds ``_lock``), dropping
        least-recently-used entries past ``capacity``."""
        self._traces[key] = trace  # repro: allow[lock-discipline] caller holds self._lock
        if self._capacity is None:
            return
        while len(self._traces) > self._capacity:
            self._traces.pop(next(iter(self._traces)))  # repro: allow[lock-discipline] caller holds self._lock
            self._evictions.inc()

    # ------------------------------------------------------------------
    def simulator(self, gpu: GPUSpec) -> GPUSimulator:
        """The (cached) simulator for one GPU spec."""
        with self._lock:
            sim = self._simulators.get(gpu)
            if sim is None:
                sim = GPUSimulator(gpu, overheads=self._overheads)
                self._simulators[gpu] = sim
            return sim

    def simulate(self, scenario: Scenario) -> StepTrace:
        """The step trace for one scenario, simulating at most once.

        Concurrent misses on the same key collapse: one thread simulates
        while the others wait on the in-flight marker, so concurrent
        requests for one point never run ``simulate_step`` twice.
        """
        started = time.perf_counter()  # repro: allow[no-wall-clock] telemetry latency measurement
        key = scenario.key()
        while True:
            with self._lock:
                trace = self._traces.get(key)
                if trace is not None:
                    self._touch(key)
                    self._hits.inc()
                    self._memory_seconds.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
                    return trace
                event, leader = self._inflight_traces.claim(key)
                if leader:
                    self._misses.inc()
                    self._simulations.inc()
                    break  # this thread simulates
            event.wait()  # another thread is computing; re-read after it
        try:
            sim = self.simulator(scenario.gpu_spec)
            trace = sim.simulate_step(
                scenario.config,
                scenario.batch_size,
                scenario.resolved_seq_len,
                dense=scenario.dense,
                **scenario.overrides_dict(),
            )
            with self._lock:
                self._install(key, trace)
            self._simulated_seconds.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
            return trace
        finally:
            # On failure waiters loop, find no trace, and one retries.
            with self._lock:
                self._inflight_traces.release(key)
            event.set()

    def trace(
        self,
        cfg: ModelConfig,
        gpu: Union[str, GPUSpec],
        batch_size: int,
        seq_len: int,
        dense: bool = False,
        **overrides,
    ) -> StepTrace:
        """Positional convenience mirroring ``GPUSimulator.simulate_step``."""
        return self.simulate(
            Scenario(
                model=cfg,
                gpu=gpu,
                batch_size=batch_size,
                seq_len=seq_len,
                dense=dense,
                overrides=freeze_overrides(overrides),
            )
        )

    def throughput(self, scenario: Scenario) -> float:
        return self.simulate(scenario).queries_per_second

    def memoize(self, key: Tuple, compute, kind: str = "derived"):
        """Memoize a derived result (e.g. an Eq. 2 fit) that is a pure
        function of cached traces. ``key`` must be hashable and include
        everything the computation depends on. Concurrent misses collapse
        the same way :meth:`simulate` misses do, and the traffic counts
        in :meth:`stats` — derived results are lookups too, so benchmarks
        see their cost instead of reading fits as free. ``kind`` selects
        the counter pair: ``"derived"`` (default) books into hits/misses
        alongside trace lookups; ``"risk"`` books into the dedicated
        ``risk_hits``/``risk_misses`` telemetry so the spot planner's
        memoized risk results are distinguishable from trace traffic."""
        if kind not in ("derived", "risk"):
            raise ValueError(f"kind must be 'derived' or 'risk', got {kind!r}")
        risk = kind == "risk"
        started = time.perf_counter()  # repro: allow[no-wall-clock] telemetry latency measurement
        latency = self._memoize_seconds[kind]
        while True:
            with self._lock:
                if key in self._derived:
                    if self._capacity is not None:
                        self._derived[key] = self._derived.pop(key)  # LRU touch
                    if risk:
                        self._risk_hits.inc()
                    else:
                        self._hits.inc()
                    latency.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
                    return self._derived[key]
                event, leader = self._inflight_derived.claim(key)
                if leader:
                    if risk:
                        self._risk_misses.inc()
                    else:
                        self._misses.inc()
                    break  # this thread computes
            event.wait()
        try:
            value = compute()
            with self._lock:
                self._derived[key] = value
                if self._capacity is not None:
                    while len(self._derived) > self._capacity:
                        self._derived.pop(next(iter(self._derived)))
                        self._evictions.inc()
            latency.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
            return value
        finally:
            with self._lock:
                self._inflight_derived.release(key)
            event.set()

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            entries = len(self._traces)
            derived_entries = len(self._derived)
        return CacheStats(
            hits=self._hits.value,
            misses=self._misses.value,
            entries=entries,
            derived_entries=derived_entries,
            simulations=self._simulations.value,
            risk_hits=self._risk_hits.value,
            risk_misses=self._risk_misses.value,
            evictions=self._evictions.value,
        )

    def clear(self) -> None:
        """Drop all cached traces/simulators/derived results and reset
        the counters."""
        with self._lock:
            self._traces.clear()
            self._simulators.clear()
            self._derived.clear()
        # Reset only this cache's instruments, not the whole registry —
        # a shared registry may carry other layers' metrics.
        for counter in (self._hits, self._misses, self._simulations,
                        self._risk_hits, self._risk_misses, self._evictions):
            counter.reset()
        for histogram in (self._memory_seconds, self._simulated_seconds,
                          *self._memoize_seconds.values()):
            histogram.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __contains__(self, scenario: Scenario) -> bool:
        with self._lock:
            return scenario.key() in self._traces


# ---------------------------------------------------------------------------
# Process-global default cache
# ---------------------------------------------------------------------------

_default_cache = SimulationCache()


def default_cache() -> SimulationCache:
    """The process-wide cache used when a consumer is not handed one."""
    return _default_cache


def reset_default_cache() -> SimulationCache:
    """Replace the global cache with a fresh one (tests/benchmarks)."""
    global _default_cache
    _default_cache = SimulationCache()
    return _default_cache


def resolve_cache(cache: Optional[SimulationCache]) -> SimulationCache:
    """The given cache, or the process-global default when ``None``.

    Every consumer that takes an optional ``cache`` argument (experiment
    modules, the cost model, sweep runners, the cluster planner) funnels
    through here, so "no cache supplied" uniformly means "share the
    process-wide traces"."""
    return cache if cache is not None else default_cache()
