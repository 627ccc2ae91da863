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
bounded cache (``capacity=N``, its one option) drops least-recently-used
entries; a later lookup of a dropped entry simply simulates it again.

Traces and derived results (:meth:`SimulationCache.memoize`: Eq. 2
fits, plan sweeps, risk distributions, the service's plan memo) go
through one lookup path, in two namespaces, ``"trace"`` and
``"derived"``. Concurrent misses on one key collapse on the cache's
:class:`~repro.scenarios.singleflight.SingleFlight`: one thread
computes, the others receive its value, or its exception if it raised.
A failed computation stores nothing, so the next lookup computes again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple, Union

from ..gpu.simulator import GPUSimulator
from ..gpu.specs import GPUSpec
from ..gpu.trace import StepTrace
from ..telemetry.metrics import MetricsRegistry
from .scenario import ModelConfig, Scenario, freeze_overrides
from .singleflight import SingleFlight

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache's accounting counters.

    ``risk_hits``/``risk_misses`` count :meth:`SimulationCache.memoize`
    traffic tagged ``kind="risk"`` (the spot planner's one makespan
    distribution memo per admitted spot candidate) separately from
    trace/derived traffic, so "the warm risk sweep recomputed nothing"
    and "an excluded candidate built no distribution" are assertable
    without entangling the trace-layer counters that the
    zero-redundant-simulation criteria already pin down.

    ``evictions`` counts entries dropped by the LRU bound (see
    ``SimulationCache(capacity=...)``); it stays 0 for unbounded caches,
    which is why it defaults rather than being required.

    ``entries`` counts resident traces; ``derived_entries`` counts the
    resident results of :meth:`SimulationCache.memoize` (Eq. 2 fits,
    plan sweeps, spot candidates' risk distributions, the planning
    service's plan-memo entries). Each is
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

    Traces (:meth:`simulate`, namespace ``"trace"``) and derived results
    (:meth:`memoize`, namespace ``"derived"``) share one lookup path,
    :meth:`_lookup`. A hit is one lock and one dict read. A miss enters
    the cache's own :class:`~repro.scenarios.singleflight.SingleFlight`
    keyed ``(namespace, key)``, so concurrent misses on one key run one
    computation and a trace key never waits on a derived one; the
    threads that received the leader's value count as hits. If the
    computation raises, every concurrent waiter gets the leader's
    exception and nothing is stored, so the next lookup computes again.

    Thread-safe: the planning service's request threads share one cache.
    Each simulator instance is also cached per GPU spec so repeated
    sweeps on the same hardware reuse one simulator. The one option,
    ``capacity``, bounds each table on its own (``None``, the default,
    is unbounded).

    Scenario subclasses that extend the space with axes the per-device
    step does not depend on (``repro.cluster.ClusterScenario``'s
    ``num_gpus``/``interconnect``) inherit :meth:`Scenario.key` unchanged,
    so all their variants share one memoized replica trace here.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        # None = unbounded (the CLI default: a sweep is finite). A
        # long-lived server sets a bound; the cache then drops
        # least-recently-used entries, and a later lookup recomputes
        # them. Traces and derived results are bounded independently,
        # each to `capacity` entries.
        self._capacity = capacity
        self._simulators: Dict[GPUSpec, GPUSimulator] = {}
        self._traces: Dict[Tuple, StepTrace] = {}
        self._derived: Dict[Tuple, object] = {}
        self._flight = SingleFlight()
        self._lock = threading.Lock()
        # The accounting counters are first-class metrics: stats() reads
        # them back out of the registry, so CacheStats and a telemetry
        # export can never disagree about what the cache did.
        self.metrics = MetricsRegistry()
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
    def simulator(self, gpu: GPUSpec) -> GPUSimulator:
        """The (cached) simulator for one GPU spec."""
        with self._lock:
            sim = self._simulators.get(gpu)
            if sim is None:
                sim = GPUSimulator(gpu)
                self._simulators[gpu] = sim
            return sim

    def simulate(self, scenario: Scenario) -> StepTrace:
        """The step trace for one scenario, simulating at most once."""
        return self._lookup(
            self._traces, "trace", scenario.key(), scenario,
            self._hits, self._misses, self._memory_seconds, self._simulated_seconds,
        )

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
        memoized risk results are distinguishable from trace traffic.
        Both kinds share the one derived namespace."""
        if kind == "derived":
            hits, misses = self._hits, self._misses
        elif kind == "risk":
            hits, misses = self._risk_hits, self._risk_misses
        else:
            raise ValueError(f"kind must be 'derived' or 'risk', got {kind!r}")
        latency = self._memoize_seconds[kind]
        return self._lookup(
            self._derived, "derived", key, compute, hits, misses, latency, latency
        )

    def _lookup(self, table, namespace, key, source, hits, misses, hit_seconds, miss_seconds):
        """The value ``table`` holds for ``key``, computed at most once.

        A hit books ``hits`` and ``hit_seconds``. A miss enters the
        flight for ``(namespace, key)``, whose leader runs :meth:`_fill`;
        the callers that shared the leader's value book a hit. ``source``
        is the scenario in the ``"trace"`` namespace and the zero-argument
        ``compute`` in ``"derived"``. (No closure here: a nested function
        would turn its free variables into cells on every call, hits
        included.)
        """
        started = time.perf_counter()  # repro: allow[no-wall-clock] telemetry latency measurement
        with self._lock:
            value = table.get(key, _MISSING)
            if value is not _MISSING:
                if self._capacity is not None:
                    table[key] = table.pop(key)  # LRU touch
                hits.inc()
                hit_seconds.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
                return value
        (value, computed), shared = self._flight.do(
            (namespace, key),
            partial(self._fill, table, namespace, key, source, hits, misses),
        )
        if shared:
            hits.inc()
        latency = hit_seconds if shared or not computed else miss_seconds
        latency.observe(time.perf_counter() - started)  # repro: allow[no-wall-clock] telemetry latency measurement
        return value

    def _fill(self, table, namespace, key, source, hits, misses):
        """The flight leader's half of :meth:`_lookup`: ``(value,
        computed)``. It reads the table again, since another leader may
        have installed the value after this thread missed; otherwise it
        books a miss, computes, installs, and drops the least-recently-used
        entries past ``capacity``."""
        with self._lock:
            value = table.get(key, _MISSING)
            if value is not _MISSING:
                hits.inc()
                return value, False
            misses.inc()
        if namespace == "trace":
            sim = self.simulator(source.gpu_spec)
            self._simulations.inc()
            value = sim.simulate_step(
                source.config,
                source.batch_size,
                source.resolved_seq_len,
                dense=source.dense,
                **source.overrides_dict(),
            )
        else:
            value = source()
        with self._lock:
            table[key] = value
            if self._capacity is not None:
                while len(table) > self._capacity:
                    table.pop(next(iter(table)))
                    self._evictions.inc()
        return value, True

    # ------------------------------------------------------------------
    def counts(self) -> Tuple[int, int, int, int, int, int]:
        """``(simulations, hits, misses, risk_hits, risk_misses,
        evictions)`` as they stand: six counter reads, with neither the
        cache lock nor the table counts that :meth:`stats` takes. The
        planning service forms each response's ``engine`` deltas from
        two of these."""
        return (
            self._simulations.value,
            self._hits.value,
            self._misses.value,
            self._risk_hits.value,
            self._risk_misses.value,
            self._evictions.value,
        )

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
