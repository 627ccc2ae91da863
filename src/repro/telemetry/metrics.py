"""A registry of named counters, gauges and latency histograms.

The engine's accounting used to live in ad-hoc integers inside
:class:`~repro.scenarios.cache.SimulationCache`; this module makes those
counters first-class, shareable metrics without changing the ``stats()``
API: the cache now *stores* its ``hits``/``misses``/
``simulations``/``risk_hits``/``risk_misses`` in registry counters and
``CacheStats`` is a snapshot of them.

Three instrument kinds, all thread-safe:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a last-write-wins level;
* :class:`Histogram` — a streaming summary (count/sum/min/max plus
  fixed log-spaced buckets) of observations, used for cache lookup
  latencies. The buckets are bounded memory by construction — 4 per
  decade over 1e-7..1e3 seconds plus one overflow slot — so ``observe``
  stays a bisect and a few adds in the hot path, while the analyzer can
  estimate p50/p95 from any exported snapshot
  (:func:`quantile_from_buckets`).

Registries are cheap; each :class:`SimulationCache` owns one, and
exporters merge snapshots. Instrument creation is get-or-create by name, so call
sites can re-resolve instead of caching handles.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

# Histogram bucket scale: fixed log-spaced upper bounds, 4 per decade
# from 1e-7 s to 1e3 s (41 bounds + 1 overflow slot = bounded memory).
# The scale is part of the export contract: a snapshot's sparse
# ``buckets`` pairs carry explicit upper bounds, and consumers recover
# each bucket's lower edge as ``upper / BUCKET_STEP``.
BUCKETS_PER_DECADE = 4
BUCKET_STEP = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (k / BUCKETS_PER_DECADE)
    for k in range(-7 * BUCKETS_PER_DECADE, 3 * BUCKETS_PER_DECADE + 1)
)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        # One attribute read is atomic; the lock only keeps inc()'s
        # read-modify-write from losing an update.
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins level (e.g. resident cache entries)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming count/sum/min/max summary of observations, plus
    fixed log-spaced bucket counts for quantile estimation."""

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        # One slot per bound plus the overflow slot (> BUCKET_BOUNDS[-1]).
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(BUCKET_BOUNDS, value)  # first bound >= value
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._buckets[index] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
            self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``None`` when empty) — see
        :func:`quantile_from_buckets`."""
        snap = self.snapshot()
        return quantile_from_buckets(
            snap["buckets"], snap["count"], snap["min"], snap["max"], q
        )

    def snapshot(self) -> Dict[str, object]:
        """count/sum/min/max plus sparse ``buckets``: ``[upper, count]``
        pairs for every non-empty bucket, in ascending bound order, the
        overflow slot last with an upper bound of ``None``."""
        with self._lock:
            buckets: List[List[object]] = [
                [BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else None, n]
                for i, n in enumerate(self._buckets)
                if n
            ]
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as a dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every instrument's state, keyed by name in sorted order —
        the exporters' (and manifests') view of the registry."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in sorted(instruments)}

    def reset(self) -> None:
        """Zero every instrument (names survive; handles stay valid)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()


def quantile_from_buckets(
    buckets: Sequence[Sequence[object]],
    count: int,
    minimum: Optional[float],
    maximum: Optional[float],
    q: float,
) -> Optional[float]:
    """Estimate the ``q``-quantile of a histogram from its exported
    sparse ``[upper_bound, count]`` bucket pairs.

    The estimate interpolates linearly inside the bucket holding the
    target rank, taking the bucket's lower edge as ``upper /
    BUCKET_STEP`` (the fixed log scale) and the overflow bucket's span
    as ``(BUCKET_BOUNDS[-1], maximum]``; the exact ``minimum`` /
    ``maximum`` clamp the result, so a single-observation histogram
    reports that observation exactly. Returns ``None`` for an empty
    histogram or a snapshot without buckets (pre-bucket schema v1
    files stay readable — they just have no quantiles)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not count or not buckets:
        return None
    rank = q * count
    seen = 0
    value: Optional[float] = None
    for bound, n in buckets:
        n = int(n)
        if n <= 0:
            continue
        if seen + n >= rank:
            if bound is None:  # overflow: spans (last bound, max]
                lower = BUCKET_BOUNDS[-1]
                upper = maximum if maximum is not None else lower
            else:
                upper = float(bound)
                lower = upper / BUCKET_STEP
            fraction = min(1.0, max(0.0, (rank - seen) / n))
            value = lower + (upper - lower) * fraction
            break
        seen += n
    if value is None:  # every bucket exhausted (rank == count edge)
        value = maximum
    if minimum is not None and value is not None:
        value = max(value, minimum)
    if maximum is not None and value is not None:
        value = min(value, maximum)
    return value


def merge_snapshots(*snapshots: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Combine registry snapshots (cache + service) into one name-sorted
    mapping. Later snapshots win on (unexpected) name collisions —
    registries are expected to use disjoint prefixes (``cache.*``,
    ``service.*``)."""
    merged: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        merged.update(snapshot)
    return dict(sorted(merged.items()))
