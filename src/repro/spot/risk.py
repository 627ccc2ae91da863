"""Preemption-aware makespan: a three-layer risk engine.

The job needs ``work_hours`` of useful compute. Under a checkpoint
policy with interval ``tau``, write cost ``c`` and restart overhead
``R``, the run is a sequence of *segments*: full segments of length
``tau + c`` (work plus the checkpoint write) and a final segment with no
write. :func:`segment_lengths` returns them as at most two ``(length,
count)`` groups, and every layer reads that form. A preemption
(exponential, rate ``lam`` per hour while running) loses the current
segment's progress and costs ``R`` before the segment restarts.

**Layer 1 — closed-form moments.** A segment of length ``s`` succeeds
per attempt with probability ``p = e^{-lam s}``; summing the geometric
attempts and the truncated-exponential failure times collapses to

    E[T_segment] = (1/lam + R) * (e^{lam s} - 1)

whose ``lam -> 0`` limit is ``s``, and the expected makespan is the sum
over segments. Expected preemptions per segment are ``e^{lam s} - 1``.
This is the classical Daly-style checkpoint/restart expectation, kept
exact per segment rather than first-order. Each term is evaluated once
per group; the sum runs over the terms repeated per segment, so it keeps
the rounding of a segment-by-segment sum.

**Layer 2 — the analytic distribution (serving path).** The same
segment process has an exact *distribution*, not just a mean: per
segment the excess over ``s`` is a geometric number of failures, each
costing a truncated-exponential wait plus ``R``. Segments are
independent, so the total-excess characteristic function is the product
of per-segment CFs: one CF per ``(length, count)`` group on the
non-negative frequencies of a 4096-point grid, raised to its count by
repeated squaring. :class:`AnalyticMakespanDistribution` inverts that
product with one real inverse FFT. p50/p95 and
``completion_probability(deadline)`` therefore need **no sampling** —
this is the planner's default (``--risk-mode analytic``). A
distribution keeps only its grid: every percentile or deadline is read
off it per call, so asking one distribution many deadlines grows
nothing. On planner workloads (hundreds of segments, moderate hazard) the analytic
percentiles agree with a 512-trial Monte Carlo within ~5% (p50/p95); the
property tests in ``tests/test_spot.py`` pin that tolerance.

**Layer 3 — batched Monte Carlo (validation path).** :class:`SpotSimulator`
samples the identical segment process, vectorized: attempts are drawn in
rectangular blocks over all still-unresolved (trial, segment) pairs at
once via inverse-CDF exponential sampling in plain numpy (uniforms
from ``numpy.random.default_rng(seed)``, transformed with
``-log(1 - u) / lam``), and survivor masks replace the inner ``while``.
The guard thresholds (``max_makespan_hours`` time cap, checked after
each failure; ``MAX_ATTEMPTS_PER_SEGMENT``) are preserved so
abandoned-trial semantics match the segment process exactly. Seeding
contract: one PCG64 stream per ``simulate`` call; blocks are drawn for
the unresolved pairs in ascending (trial, segment) order, so results are
deterministic for a given ``(seed, trials, inputs)``. Degenerate
inputs (hazard so high a segment almost never completes) are cut off by
the guards and reported as ``inf`` — the serialization layer maps those
to ``null`` in ``--json`` output.

**Zero hazard.** When ``lam == 0`` checkpointing buys nothing, so a
rational policy writes no checkpoints at all: every layer returns
``work_hours`` exactly (a point mass), which is what makes
zero-preemption spot planning reproduce the on-demand plan bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .checkpoint import CheckpointPolicy

#: A run's segments as ``(length, count)`` groups in segment order (see
#: :func:`segment_lengths`).
Segments = List[Tuple[float, int]]

DEFAULT_TRIALS = 512

# Trials that exceed this are abandoned as non-terminating (expected
# when e^{lam * s} is astronomically large) and recorded as inf.
DEFAULT_MAX_MAKESPAN_HOURS = 1e6

# Second non-termination guard: a segment whose per-attempt success
# probability is ~e^{-lam s} needs ~e^{lam s} attempts; past this many
# the trial is abandoned as inf rather than looped to the time cap.
MAX_ATTEMPTS_PER_SEGMENT = 10_000

# Batched-sampling shape limits: at most this many attempt columns per
# block, and at most this many uniforms per rectangular draw (keeps the
# degenerate-hazard worst case at tens of MB instead of unbounded).
MAX_BLOCK_ATTEMPTS = 4096
MAX_BLOCK_SAMPLES = 2_000_000


def segment_lengths(work_hours: float, policy: CheckpointPolicy) -> Segments:
    """The run's segments as ``(length, count)`` groups, in segment order,
    checkpoint writes included.

    Full segments are ``tau + c``; the final segment omits the write
    (there is nothing left to protect), so a run has at most two groups:
    the full segments, then the final one (merged into the first when
    the lengths are equal). An interval longer than the job degenerates
    to a single write-free segment of the whole job — the policy quietly
    stops mattering, it does not fail.
    """
    if work_hours < 0:
        raise ValueError(f"work_hours must be >= 0, got {work_hours}")
    if work_hours == 0:
        return []
    if not math.isfinite(work_hours):
        return [(work_hours, 1)]
    tau = policy.interval_hours
    n_full = int(work_hours // tau)
    remainder = work_hours - n_full * tau
    # Even-division tolerance must scale with the *job*, not the interval:
    # remainder inherits the absolute float error of work_hours (~eps *
    # work_hours per operation that built it), so a long job with many
    # intervals can carry a residue far above tau * 1e-9 that is still
    # pure rounding noise. Treating it as a real segment would append a
    # near-zero final segment and inflate expected preemptions. Since this
    # branch requires n_full >= 1 (work_hours >= tau), the relative bound
    # subsumes the old tau-relative one: nothing previously treated as
    # even division changes.
    if remainder < work_hours * 1e-9 and n_full > 0:
        # Work divides evenly; the last full interval is the final segment.
        n_full -= 1
        remainder = tau
    full = tau + policy.write_hours
    if n_full == 0:
        return [(remainder, 1)]
    if remainder == full:
        return [(full, n_full + 1)]
    return [(full, n_full), (remainder, 1)]


def _expm1_or_inf(x: float) -> float:
    """``e^x - 1``, saturating to inf instead of raising OverflowError —
    a hazard so high that a segment essentially never completes is a
    legal input whose makespan is "never", not a crash."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _resolve_segments(
    work_hours: float,
    policy: CheckpointPolicy,
    segments: Optional[Segments],
) -> Segments:
    """``segments`` when the caller already computed them (the planner
    prices several estimators per candidate and passes one shared list),
    else a fresh :func:`segment_lengths`."""
    return segment_lengths(work_hours, policy) if segments is None else segments


def _per_segment(
    segments: Segments, values: Optional[Sequence[float]] = None
) -> np.ndarray:
    """One entry per segment: each group's value (by default its length)
    repeated ``count`` times."""
    if values is None:
        values = [s for s, _ in segments]
    return np.repeat(np.asarray(values, dtype=float), [count for _, count in segments])


def _sum_over_segments(segments: Segments, term: Callable[[float], float]) -> float:
    """``sum(term(s) for each segment s)``, evaluating ``term`` once per
    group. The cumulative sum over the per-segment terms keeps the
    left-to-right rounding of summing segment by segment, so the result
    is bit-identical to the per-segment walk (``count * term`` is not)."""
    if not segments:
        return 0.0
    terms = _per_segment(segments, [term(s) for s, _ in segments])
    return float(np.cumsum(terms)[-1])


def expected_makespan_hours(
    work_hours: float,
    rate_per_hour: float,
    policy: CheckpointPolicy,
    segments: Optional[Segments] = None,
) -> float:
    """Closed-form expected wall-clock hours to finish ``work_hours``."""
    if rate_per_hour < 0:
        raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
    if rate_per_hour == 0:
        return work_hours  # no hazard -> no checkpoints, on-demand makespan
    factor = 1.0 / rate_per_hour + policy.restart_hours
    return _sum_over_segments(
        _resolve_segments(work_hours, policy, segments),
        lambda s: factor * _expm1_or_inf(rate_per_hour * s),
    )


def expected_preemptions(
    work_hours: float,
    rate_per_hour: float,
    policy: CheckpointPolicy,
    segments: Optional[Segments] = None,
) -> float:
    """Closed-form expected preemption count over the whole run."""
    if rate_per_hour < 0:
        raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
    if rate_per_hour == 0:
        return 0.0
    return _sum_over_segments(
        _resolve_segments(work_hours, policy, segments),
        lambda s: _expm1_or_inf(rate_per_hour * s),
    )


# ---------------------------------------------------------------------------
# Layer 2: the analytic makespan distribution
# ---------------------------------------------------------------------------


def _segment_excess_moments(
    s: float, rate: float, restart: float
) -> Tuple[float, float]:
    """(mean, variance) of one segment's *excess* time ``T_seg - s``.

    The excess is a geometric number ``K`` of failures (success
    probability ``p = e^{-lam s}``), each costing ``Z = X + R`` with
    ``X`` exponential truncated to ``[0, s)``. Closed-form conditional
    moments of the truncated exponential plus the compound-geometric
    identities ``E[T] = E[K] E[Z]`` and
    ``Var[T] = E[K] Var[Z] + Var[K] E[Z]^2`` give both moments without
    any integration. Saturates to inf (never to NaN) in degenerate
    regimes, which the distribution constructor treats as "never
    finishes".
    """
    lam_s = rate * s
    q = -math.expm1(-lam_s)  # failure probability per attempt
    if q <= 0.0:
        return 0.0, 0.0
    p = math.exp(-lam_s)
    mean_k = _expm1_or_inf(lam_s)  # q / p
    var_k = mean_k * (mean_k + 1.0)  # q / p^2
    mean_x = 1.0 / rate - s * p / q
    mean_x2 = (2.0 / rate**2 - p * (s * s + 2.0 * s / rate + 2.0 / rate**2)) / q
    mean_z = mean_x + restart
    mean_z2 = mean_x2 + 2.0 * restart * mean_x + restart * restart
    var_z = max(mean_z2 - mean_z * mean_z, 0.0)
    return mean_k * mean_z, mean_k * var_z + var_k * mean_z * mean_z


def _segment_excess_cf(
    omega: np.ndarray, s: float, rate: float, restart: float
) -> np.ndarray:
    """Characteristic function of one segment's excess time on ``omega``.

    With ``phi_X`` the CF of the truncated exponential failure wait, the
    compound-geometric excess has the exact CF
    ``p / (1 - q * e^{i omega R} * phi_X(omega))``.
    """
    lam_s = rate * s
    p = math.exp(-lam_s)
    q = -math.expm1(-lam_s)
    if q <= 0.0:
        return np.ones_like(omega, dtype=complex)
    i_omega = 1j * omega
    # phi_X(w) = (lam / (lam - iw)) * (1 - e^{-(lam - iw) s}) / (1 - e^{-lam s})
    phi_x = (rate / (rate - i_omega)) * (1.0 - np.exp(-(rate - i_omega) * s)) / q
    return p / (1.0 - q * np.exp(i_omega * restart) * phi_x)


def _power(z: np.ndarray, n: int) -> np.ndarray:
    """``z ** n`` for an integer ``n >= 1``, by repeated squaring.

    numpy squares too below ``n = 100``, so the two agree bit for bit
    there; from 100 up it computes ``exp(n log z)``, ~14x slower on the
    risk grid, and a long run's full-segment group has thousands.
    """
    result = None
    while True:
        if n & 1:
            result = z if result is None else result * z
        n >>= 1
        if not n:
            return result
        z = z * z


class AnalyticMakespanDistribution:
    """The exact makespan distribution, no sampling (the serving path).

    The total makespan is ``T = sum(segments) + E`` where the excess
    ``E`` is a sum of independent per-segment compound-geometric terms.
    The constructor multiplies the excess CFs of the ``(length, count)``
    groups, each raised to its count, inverts the product with one real
    inverse FFT on a ``grid_size``-point grid spanning ``[0, mean +
    TAIL_SIGMAS * std]`` of the excess (both from the exact moments), and
    keeps the resulting CDF. ``percentile``/``completion_probability`` then read
    the grid on every call — microseconds per candidate, versus a full
    Monte Carlo — and store nothing per quantile or deadline.

    Degenerate regimes (the closed-form mean exceeds
    ``max_makespan_hours``, or the excess variance overflows: the job
    essentially never finishes) report ``inf`` percentiles and
    completion probability 0, matching what the Monte Carlo guards
    report as all-abandoned. Zero hazard is an exact point mass at
    ``work_hours``.
    """

    GRID_SIZE = 4096
    TAIL_SIGMAS = 12.0

    def __init__(
        self,
        work_hours: float,
        rate_per_hour: float,
        policy: CheckpointPolicy,
        segments: Optional[Segments] = None,
        grid_size: int = GRID_SIZE,
        max_makespan_hours: float = DEFAULT_MAX_MAKESPAN_HOURS,
    ) -> None:
        if rate_per_hour < 0:
            raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
        if grid_size < 16:
            raise ValueError(f"grid_size must be >= 16, got {grid_size}")
        self.work_hours = work_hours
        self.rate_per_hour = rate_per_hour
        self._point: Optional[float] = None
        self._degenerate = False
        self._start = 0.0
        self._dt = 0.0
        self._cdf: Optional[np.ndarray] = None
        if rate_per_hour == 0:
            # Matches the closed form: no hazard, no checkpoints.
            self._mean = work_hours
            self._point = work_hours
            return
        segs = _resolve_segments(work_hours, policy, segments)
        if not segs:
            self._mean = 0.0
            self._point = 0.0
            return
        self._mean = expected_makespan_hours(
            work_hours, rate_per_hour, policy, segments=segs
        )
        # A regime the Monte Carlo guards would abandon wholesale (the
        # expectation alone exceeds the time cap) is reported the same
        # way here: inf percentiles, completion probability 0.
        if not self._mean <= max_makespan_hours:
            self._degenerate = True
            return
        restart = policy.restart_hours
        mean_exc = 0.0
        var_exc = 0.0
        for s, count in segs:
            m, v = _segment_excess_moments(s, rate_per_hour, restart)
            mean_exc += count * m
            var_exc += count * v
        if not math.isfinite(var_exc):
            self._degenerate = True
            return
        t_min = math.fsum(_per_segment(segs).tolist())
        if var_exc == 0.0 and mean_exc == 0.0:
            self._point = t_min
            return
        span = mean_exc + self.TAIL_SIGMAS * math.sqrt(var_exc)
        if not (span > 0.0 and math.isfinite(span)):
            self._degenerate = True
            return
        dt = span / grid_size
        # Non-negative frequencies only: the excess is real, so
        # phi(-w) = conj phi(w), and the real inverse below supplies the
        # negative half.
        omega = 2.0 * math.pi * np.fft.rfftfreq(grid_size, d=dt)
        phi = np.ones(len(omega), dtype=complex)
        for s, count in segs:
            phi *= _power(_segment_excess_cf(omega, s, rate_per_hour, restart), count)
        # conj: phi is E[e^{+i omega T}], so recovering the density needs
        # the transform with e^{-i omega t}; irfft applies e^{+i omega t}.
        pmf = np.fft.irfft(np.conj(phi), n=grid_size)
        np.maximum(pmf, 0.0, out=pmf)  # clip FFT ringing
        cdf = np.cumsum(pmf)
        total = cdf[-1]
        if not (total > 0.0 and math.isfinite(total)):
            self._degenerate = True
            return
        cdf /= total
        self._start = t_min
        self._dt = dt
        self._cdf = cdf

    @property
    def mean_hours(self) -> float:
        """The closed-form expectation (exact, not read off the grid)."""
        return self._mean

    def percentile(self, q: float) -> float:
        """The q-quantile of the makespan, ``q`` in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self._degenerate:
            return math.inf
        if self._point is not None:
            return self._point
        idx = int(np.searchsorted(self._cdf, q, side="left"))
        idx = min(idx, len(self._cdf) - 1)
        return self._start + idx * self._dt

    @property
    def p50_hours(self) -> float:
        return self.percentile(0.50)

    @property
    def p95_hours(self) -> float:
        return self.percentile(0.95)

    def completion_probability(self, deadline_hours: Optional[float]) -> float:
        """P(makespan <= deadline); 1.0 when there is no deadline —
        every run "finishes in time"."""
        if deadline_hours is None:
            return 1.0
        if self._degenerate:
            return 0.0
        if self._point is not None:
            return 1.0 if deadline_hours >= self._point else 0.0
        if deadline_hours < self._start:
            return 0.0
        cdf = self._cdf
        pos = (deadline_hours - self._start) / self._dt
        idx = int(pos)
        if idx >= len(cdf) - 1:
            value = float(cdf[-1])
        else:  # linear interpolation between the bracketing grid points
            frac = pos - idx
            value = float(cdf[idx] + frac * (cdf[idx + 1] - cdf[idx]))
        return min(1.0, value)


# ---------------------------------------------------------------------------
# Layer 3: batched Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MakespanDistribution:
    """Monte Carlo makespan samples (sorted) with summary accessors.

    ``mean_hours`` and ``mean_preemptions`` average over *completed*
    trials only: an abandoned (``inf``) trial records the guard
    thresholds, which are an artifact of the cutoff rather than a
    statistic of the run — folding them in would report every heavy
    regime as ``inf``/guard-biased. Abandoned trials are reported
    separately via ``abandoned_trials``; ``mean_hours_all`` keeps the
    every-sample mean (``inf`` whenever any trial was abandoned) for
    consumers that want the unconditional semantics.
    """

    samples: Tuple[float, ...]  # ascending
    mean_preemptions: float
    abandoned_trials: int = 0

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("MakespanDistribution needs at least one sample")

    @property
    def trials(self) -> int:
        return len(self.samples)

    @property
    def completed_trials(self) -> int:
        return len(self.samples) - self.abandoned_trials

    @property
    def mean_hours(self) -> float:
        """Mean over completed trials; 0.0 when every trial was abandoned
        (mirroring ``mean_preemptions``) — check ``abandoned_trials``."""
        completed = self.completed_trials
        if completed == 0:
            return 0.0
        # samples are sorted ascending, so the completed (finite) trials
        # are exactly the first `completed` entries.
        return sum(self.samples[:completed]) / completed

    @property
    def mean_hours_all(self) -> float:
        """Mean over all samples: ``inf`` if any trial was abandoned."""
        return sum(self.samples) / len(self.samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        rank = max(1, math.ceil(q * len(self.samples)))
        return self.samples[rank - 1]

    @property
    def p50_hours(self) -> float:
        return self.percentile(0.50)

    @property
    def p95_hours(self) -> float:
        return self.percentile(0.95)

    def completion_probability(self, deadline_hours: Optional[float]) -> float:
        """Fraction of trials finishing within the deadline (1.0 when
        there is no deadline — every run "finishes in time")."""
        if deadline_hours is None:
            return 1.0
        return sum(1 for s in self.samples if s <= deadline_hours) / len(self.samples)


def _exponential_waits(
    rng: np.random.Generator, rows: int, cols: int, rate: float
) -> np.ndarray:
    """A ``(rows, cols)`` block of exponential preemption waits via the
    inverse CDF: uniforms from the seeded numpy stream (the documented
    part of the contract), transformed by ``-log(1 - u) / rate``."""
    uniforms = rng.random((rows, cols))
    return -np.log(1.0 - uniforms) / rate


def _attempt_block(rate: float, seg_hours: float, rows: int) -> int:
    """Attempt columns to draw per block: ~2x the expected geometric
    attempt count ``e^{lam s}`` so most pairs resolve in one draw,
    clamped by the attempt guard, the column ceiling, and the per-draw
    sample budget. Pure function of (rate, seg_hours, rows), which keeps
    the stream consumption — and therefore the samples — deterministic."""
    expected = math.exp(min(rate * seg_hours, 32.0))
    block = min(
        float(MAX_ATTEMPTS_PER_SEGMENT),
        float(MAX_BLOCK_ATTEMPTS),
        max(1.0, math.ceil(2.0 * expected)),
    )
    budget = max(1, MAX_BLOCK_SAMPLES // max(rows, 1))
    return max(1, min(int(block), budget))


class SpotSimulator:
    """Seeded, batched Monte Carlo over the segment process.

    Sampling is vectorized over all (trial, segment) pairs at once:
    every pair needs a geometric number of attempts, so each round draws
    a rectangular block of attempts for every still-unresolved pair,
    resolves successes with a survivor mask, and re-draws only the
    survivors. The guard semantics of the scalar process are preserved
    exactly — a trial is abandoned iff some segment fails at attempt
    ``MAX_ATTEMPTS_PER_SEGMENT`` or some failure pushes cumulative
    elapsed time (in segment order) past ``max_makespan_hours``; the
    time-cap check is applied to the chronological prefix sums after
    sampling, which reproduces the scalar "check after each failure"
    rule because elapsed time only grows.

    Deterministic: the same ``(seed, trials, inputs)`` always produces
    the same distribution (one ``numpy.random.default_rng(seed)`` stream,
    consumed in ascending (trial, segment) pair order per round).
    """

    def __init__(
        self,
        trials: int = DEFAULT_TRIALS,
        seed: int = 0,
        max_makespan_hours: float = DEFAULT_MAX_MAKESPAN_HOURS,
    ) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        self.trials = trials
        self.seed = seed
        self.max_makespan_hours = max_makespan_hours

    def simulate(
        self,
        work_hours: float,
        rate_per_hour: float,
        policy: CheckpointPolicy,
        seed: Optional[int] = None,
        segments: Optional[Segments] = None,
    ) -> MakespanDistribution:
        """Sample ``trials`` makespans; ``seed`` overrides the default."""
        if rate_per_hour < 0:
            raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
        if rate_per_hour == 0:
            # Matches the closed form: no hazard, no checkpoints.
            return MakespanDistribution(
                samples=(work_hours,) * self.trials, mean_preemptions=0.0
            )
        segs = _resolve_segments(work_hours, policy, segments)
        if not segs:
            return MakespanDistribution(
                samples=(0.0,) * self.trials, mean_preemptions=0.0
            )
        rng = np.random.default_rng(self.seed if seed is None else seed)
        restart = policy.restart_hours
        seg_arr = _per_segment(segs)
        n, m = self.trials, len(seg_arr)
        # Per-(trial, segment) state, flat C-order views for pair updates.
        fail_time = np.zeros((n, m))
        fail_count = np.zeros((n, m), dtype=np.int64)
        attempts = np.zeros(n * m, dtype=np.int64)
        resolved = np.zeros((n, m), dtype=bool)
        attempt_abandoned = np.zeros(n, dtype=bool)
        ft, fc, res = fail_time.ravel(), fail_count.ravel(), resolved.ravel()
        seg_flat = np.tile(seg_arr, n)
        while True:
            pending = np.flatnonzero(~res)
            if pending.size == 0:
                break
            s_p = seg_flat[pending]
            block = _attempt_block(rate_per_hour, float(s_p.max()), pending.size)
            waits = _exponential_waits(rng, pending.size, block, rate_per_hour)
            success_mask = waits >= s_p[:, None]
            step = np.where(success_mask, 0.0, waits + restart)
            cum = np.cumsum(step, axis=1)
            first = np.where(
                success_mask.any(axis=1), success_mask.argmax(axis=1), block
            )
            # Attempts still allowed before the guard (the attempt *at*
            # the threshold may still succeed; a failure there abandons).
            limit = MAX_ATTEMPTS_PER_SEGMENT - attempts[pending]
            succeeded = first < np.minimum(limit, block)
            exhausted = (limit <= block) & ~succeeded
            surviving = ~succeeded & ~exhausted
            done = pending[succeeded]
            ft[done] += cum[succeeded, first[succeeded]]
            fc[done] += first[succeeded]
            res[done] = True
            dead = pending[exhausted]
            if dead.size:
                attempt_abandoned[dead // m] = True
                # An abandoned trial stops sampling its remaining pairs.
                resolved[attempt_abandoned] = True
            alive = pending[surviving]
            if alive.size:
                ft[alive] += cum[surviving, -1]
                fc[alive] += block
                attempts[alive] += block
        # Chronological time-cap guard: cumulative elapsed right after the
        # last failure of segment k is (all earlier segments' full times)
        # + (segment k's failure costs). Elapsed only grows, so "some
        # failure pushed past the cap" <=> the max of these exceeds it.
        totals = fail_time + seg_arr[None, :]
        prefix = np.cumsum(totals, axis=1) - totals
        cap_abandoned = (
            (fail_count > 0) & (prefix + fail_time > self.max_makespan_hours)
        ).any(axis=1)
        abandoned_mask = cap_abandoned | attempt_abandoned
        elapsed = totals.sum(axis=1)
        elapsed[abandoned_mask] = np.inf
        abandoned = int(abandoned_mask.sum())
        completed = n - abandoned
        preemptions = int(fail_count.sum(axis=1)[~abandoned_mask].sum())
        return MakespanDistribution(
            samples=tuple(sorted(elapsed.tolist())),
            mean_preemptions=(preemptions / completed if completed else 0.0),
            abandoned_trials=abandoned,
        )
