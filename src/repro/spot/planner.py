"""Risk-adjusted cluster planning over spot and on-demand tiers.

:class:`RiskAdjustedPlanner` extends the PR 2
:class:`~repro.cluster.planner.ClusterPlanner`: the cluster sweep (and
its cached replica traces) is inherited unchanged, and every resulting
:class:`~repro.cluster.planner.ClusterCandidate` is priced twice —

* **on-demand**: the PR 2 numbers, makespan = wall-clock hours exactly;
* **spot**: the provider's discounted rate against a *risk-adjusted*
  makespan from :mod:`repro.spot.risk` — closed-form expectation for
  ranking, and per ``risk_mode`` either the analytic distribution
  (default: p50/p95/completion probability with no sampling) or the
  batched Monte Carlo validation path.

The spot math is pure post-processing over already-priced candidates, so
the risk sweep performs **zero** additional simulations beyond the
on-demand plan, warm or cold. On a sweep miss each spot candidate

1. prices its cadences in closed form (O(cadences): a run's segments are
   at most two ``(length, count)`` groups) and keeps the cheapest;
2. runs the exclusion check against the catalog's spot price;
3. only then looks up its makespan distribution(s), memoized in the
   cache's derived-result namespace (``kind="risk"``) under
   ``("spot-risk-dist", cluster_key, work_hours, market digest, resolved
   cadence, write and restart seconds, risk_mode, trials, seed)``.

So a candidate priced out of the spot tier never builds a distribution,
and if catalog prices later admit it, it builds one exactly once.
Deadlines and prices are deliberately outside the key: completion
probabilities are evaluated against the memoized distribution at plan
time, and catalog rates only enter the (cheap, uncached) exclusion
arithmetic.

Above the distributions sits the sweep memo. The tier rows, exclusions and
risk frontier depend on no target, so
:meth:`RiskAdjustedPlanner.spot_sweep` memoizes them as one derived
result, keyed like the cluster sweep (catalog digest included: the rows
hold prices) plus the risk inputs. Each plan call reads completion
probabilities at its own deadline from the rows' serving distributions,
so a re-plan with another deadline, budget or confidence makes one
cache lookup and no risk lookups.

Spot candidates whose expected cost exceeds their own on-demand cost
(possible when the hazard is high enough that lost work and restarts eat
the discount) are *excluded with a recorded reason* rather than listed —
every spot candidate in a plan is expected to save money.

The Pareto frontier gains the risk view: (p95 hours, expected dollars).
An on-demand candidate's p95 equals its deterministic hours, so safe
configurations compete with cheap-but-risky ones on one chart, and the
"cheapest under deadline" pick accepts a completion-probability target
("≥95% chance of finishing in 24 h").
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cloud.pricing import PriceCatalog
from ..cluster.planner import (
    ClusterCandidate,
    ClusterPlan,
    ClusterPlanner,
    ClusterSweep,
    dominance_sweep,
    strategy_payload,
)
from ..scenarios import SimulationCache
from ..scenarios.scenario import ModelConfig
from ..telemetry.tracer import Tracer
from .checkpoint import (
    DEFAULT_DISK_BANDWIDTH_GBS,
    CheckpointPolicy,
    checkpoint_state_gb,
    optimal_interval_minutes,
)
from .market import SpotMarket, get_spot_market
from .risk import (
    DEFAULT_TRIALS,
    AnalyticMakespanDistribution,
    MakespanDistribution,
    Segments,
    SpotSimulator,
    expected_makespan_hours,
    expected_preemptions,
    segment_lengths,
)

ONDEMAND = "ondemand"
SPOT = "spot"

DEFAULT_CONFIDENCE = 0.95
DEFAULT_SEED = 20240724  # the paper's venue year/month; any constant works

# How spot percentiles/completion probabilities are produced:
# "analytic" (default) serves them from the closed-form
# AnalyticMakespanDistribution with no sampling; "mc" serves them from
# the batched Monte Carlo (the validation path); "both" serves analytic
# while also running the Monte Carlo so its mean is reported alongside.
RISK_MODES = ("analytic", "mc", "both")
DEFAULT_RISK_MODE = "analytic"

#: A spot row's serving distribution: completion probabilities at a
#: deadline are read from it at selection time.
Serving = Union[AnalyticMakespanDistribution, MakespanDistribution]


@dataclass(frozen=True)
class SpotCandidate:
    """One cluster candidate priced at one capacity tier.

    For the on-demand tier the distribution is a point mass at the
    deterministic makespan (p50 = p95 = expected = hours, completion is
    0/1 against the deadline); for the spot tier the fields carry the
    closed-form expectation and the Monte Carlo percentiles.
    """

    base: ClusterCandidate
    tier: str  # ONDEMAND | SPOT
    dollars_per_gpu_hour: float  # the billed rate for this tier
    expected_hours: float  # closed-form expectation
    mc_mean_hours: float  # Monte Carlo sampled mean (validates the closed form)
    p50_hours: float
    p95_hours: float
    expected_preemptions: float
    completion_probability: float  # within the plan deadline (1.0 if none)
    market: Optional[SpotMarket] = None
    policy: Optional[CheckpointPolicy] = None

    @property
    def scenario(self):
        return self.base.scenario

    @property
    def provider(self) -> str:
        return self.base.provider

    @cached_property
    def label(self) -> str:
        # Cached like ClusterCandidate.label: sort keys and the frontier
        # sweep read it O(n log n) times per plan.
        return f"{self.base.label}_{self.tier}"

    @property
    def ondemand_hours(self) -> float:
        return self.base.hours

    @property
    def ondemand_dollars(self) -> float:
        return self.base.dollars

    def _dollars(self, hours: float) -> float:
        return hours * self.dollars_per_gpu_hour * self.base.scenario.num_gpus

    @cached_property
    def expected_dollars(self) -> float:
        # Cached: the dominance sweep, feasibility filter and both
        # min() selections reread this O(n log n) times per plan.
        return self._dollars(self.expected_hours)

    @property
    def p95_dollars(self) -> float:
        return self._dollars(self.p95_hours)

    @property
    def expected_savings(self) -> float:
        """Expected dollars saved vs running this cluster on demand."""
        return self.ondemand_dollars - self.expected_dollars

    def meets(
        self,
        deadline_hours: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        confidence: float = DEFAULT_CONFIDENCE,
    ) -> bool:
        """Feasibility under the risk-adjusted targets: the deadline must
        be met with at least ``confidence`` probability, the budget is
        checked against expected dollars."""
        if deadline_hours is not None and self.completion_probability < confidence:
            return False
        if budget_dollars is not None and self.expected_dollars > budget_dollars:
            return False
        return True

    def at_completion(self, probability: float) -> "SpotCandidate":
        """This candidate with another completion probability. The copy
        keeps the cached label and expected dollars, which no deadline
        moves; ``dataclasses.replace`` would rerun ``__init__`` and drop
        them, at ~5x the cost per row of a selection."""
        if probability == self.completion_probability:
            return self
        copy = object.__new__(SpotCandidate)
        copy.__dict__.update(self.__dict__, completion_probability=probability)
        return copy

    def sort_key(self) -> Tuple:
        """Deterministic total order on the risk view: tight-tail before
        loose, cheap-in-expectation before expensive, label last (which
        also orders the on-demand tier before spot on exact ties)."""
        return (self.p95_hours, self.expected_dollars, self.label)

    def to_dict(self) -> Dict[str, object]:
        scenario = self.base.scenario
        payload = {
            "label": self.label,
            "tier": self.tier,
            "gpu": scenario.gpu_spec.name,
            "provider": self.provider,
            "num_gpus": scenario.num_gpus,
            "interconnect": scenario.interconnect_spec.name,
            "dense": scenario.dense,
            "per_gpu_batch": scenario.batch_size,
            "dollars_per_gpu_hour": self.dollars_per_gpu_hour,
            "expected_hours": self.expected_hours,
            "mc_mean_hours": self.mc_mean_hours,
            "p50_hours": self.p50_hours,
            "p95_hours": self.p95_hours,
            "expected_dollars": self.expected_dollars,
            "p95_dollars": self.p95_dollars,
            "ondemand_hours": self.ondemand_hours,
            "ondemand_dollars": self.ondemand_dollars,
            "expected_preemptions": self.expected_preemptions,
            "completion_probability": self.completion_probability,
            "mtbp_hours": self.market.mtbp_hours if self.market else None,
            "checkpoint_minutes": self.policy.interval_minutes if self.policy else None,
        }
        payload.update(strategy_payload(scenario))
        return payload


def risk_pareto_frontier(candidates: Sequence[SpotCandidate]) -> List[SpotCandidate]:
    """Non-dominated candidates under (minimize p95 hours, minimize
    expected dollars) — the risk-adjusted analogue of the cluster
    planner's frontier, sharing its weak-dominance/tie-collapse sweep."""
    return dominance_sweep(
        candidates, SpotCandidate.sort_key, lambda c: c.expected_dollars
    )


@dataclass(frozen=True)
class RiskDistributions:
    """The memoized risk result of one admitted spot candidate: the
    serving distribution (analytic or Monte Carlo, per risk mode) plus
    the Monte Carlo run when the mode requested one. Deadlines are *not*
    part of the memoization key — ``completion_probability(deadline)``
    is evaluated against the stored distribution at plan time."""

    serving: Union[AnalyticMakespanDistribution, MakespanDistribution]
    mc: Optional[MakespanDistribution]

    @property
    def mc_mean_hours(self) -> float:
        """The sampled mean when a Monte Carlo ran, else the serving
        distribution's closed-form mean (modes without sampling)."""
        return self.mc.mean_hours if self.mc is not None else self.serving.mean_hours


@dataclass(frozen=True)
class SpotSweep:
    """The target-free half of a spot plan, memoized per sweep key (see
    :meth:`RiskAdjustedPlanner.spot_sweep`): the cluster sweep it priced,
    the tier rows in ``(p95_hours, expected_dollars, label)`` order with
    completion probabilities for no deadline (all 1), each row's serving
    distribution (``None`` for the on-demand point mass), the frontier
    as row indices, and the exclusion reasons. Self-contained: it never
    re-reads the risk memo, which the LRU bound may have dropped."""

    cluster: ClusterSweep
    candidates: Tuple[SpotCandidate, ...]
    servings: Tuple[Optional[Serving], ...]
    frontier: Tuple[int, ...]
    excluded: Tuple[str, ...]

    def at_deadline(self, deadline_hours: Optional[float]) -> List[SpotCandidate]:
        """Fresh rows with their completion probability at the deadline:
        the on-demand tier is 0/1 against its deterministic hours, the
        spot tier reads its serving distribution."""
        if deadline_hours is None:
            return list(self.candidates)
        rows = []
        for candidate, serving in zip(self.candidates, self.servings):
            if serving is None:
                probability = 1.0 if candidate.base.hours <= deadline_hours else 0.0
            else:
                probability = float(serving.completion_probability(deadline_hours))
            rows.append(candidate.at_completion(probability))
        return rows


@dataclass
class SpotPlan:
    """The risk planner's full answer: both tiers, risk frontier,
    confidence-constrained recommendation, and the untouched on-demand
    plan it was derived from."""

    ondemand: ClusterPlan
    confidence: float
    spot_mode: str  # "both" | "only" | "off"
    candidates: List[SpotCandidate]
    frontier: List[SpotCandidate]
    recommended: Optional[SpotCandidate]
    fastest: Optional[SpotCandidate]
    excluded: List[str] = field(default_factory=list)
    risk_mode: str = DEFAULT_RISK_MODE

    @property
    def deadline_hours(self) -> Optional[float]:
        return self.ondemand.deadline_hours

    @property
    def budget_dollars(self) -> Optional[float]:
        return self.ondemand.budget_dollars

    @property
    def feasible(self) -> List[SpotCandidate]:
        return [
            c for c in self.candidates
            if c.meets(self.deadline_hours, self.budget_dollars, self.confidence)
        ]

    @property
    def spot_candidates(self) -> List[SpotCandidate]:
        return [c for c in self.candidates if c.tier == SPOT]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable plan (``--json``), deterministically ordered."""
        return {
            "model": self.ondemand.model_name,
            "dataset": self.ondemand.dataset,
            "seq_len": self.ondemand.seq_len,
            "num_queries": self.ondemand.num_queries,
            "epochs": self.ondemand.epochs,
            "deadline_hours": self.deadline_hours,
            "budget_dollars": self.budget_dollars,
            "confidence": self.confidence,
            "spot": self.spot_mode,
            "risk_mode": self.risk_mode,
            "num_candidates": len(self.candidates),
            "num_spot_candidates": len(self.spot_candidates),
            "num_feasible": len(self.feasible),
            "frontier": [c.to_dict() for c in self.frontier],
            "recommended": self.recommended.to_dict() if self.recommended else None,
            "fastest": self.fastest.to_dict() if self.fastest else None,
            "excluded": list(self.excluded),
            "skipped": list(self.ondemand.skipped),
            "ondemand_frontier": [c.to_dict() for c in self.ondemand.frontier],
        }

    def to_table(self, top: int = 10) -> str:
        """Risk frontier + recommendation as a report-style text table."""
        od = self.ondemand
        lines = [
            f"== spot plan: {od.model_name} on {od.dataset or f'seq {od.seq_len}'} "
            f"({od.num_queries} queries x {od.epochs} epochs) ==",
        ]
        target = []
        if self.deadline_hours is not None:
            target.append(
                f"deadline {self.deadline_hours:g} h @ >= {self.confidence:.0%}"
            )
        if self.budget_dollars is not None:
            target.append(f"budget ${self.budget_dollars:g} (expected)")
        lines.append(
            f"target: {', '.join(target) if target else 'none (full frontier)'}; "
            f"{len(self.feasible)}/{len(self.candidates)} candidates feasible; "
            f"spot tier: {self.spot_mode}; risk mode: {self.risk_mode}"
        )
        width = max([len(c.label) for c in self.frontier[:top]] + [12])
        lines.append(
            f"{'risk-pareto configuration':<{width}}  {'E[h]':>8}  {'p95 h':>8}  "
            f"{'E[$]':>9}  {'P(done)':>7}  {'preempt':>7}"
        )
        for c in self.frontier[:top]:
            lines.append(
                f"{c.label:<{width}}  {c.expected_hours:>8.2f}  {c.p95_hours:>8.2f}  "
                f"{c.expected_dollars:>9.2f}  {c.completion_probability:>7.2f}  "
                f"{c.expected_preemptions:>7.2f}"
            )
        if len(self.frontier) > top:
            lines.append(f"... {len(self.frontier) - top} more frontier points (--top)")
        if self.recommended is not None:
            r = self.recommended
            lines.append(
                f"recommended: {r.label} — E[${r.expected_dollars:.2f}] in "
                f"E[{r.expected_hours:.2f} h] (p95 {r.p95_hours:.2f} h, "
                f"P(meets target) {r.completion_probability:.2f})"
            )
            if r.tier == SPOT:
                lines.append(
                    f"             expected saving vs on-demand: "
                    f"${r.expected_savings:.2f} "
                    f"({r.expected_preemptions:.1f} preemptions expected)"
                )
        else:
            lines.append("recommended: none — no configuration meets the target")
        if self.fastest is not None and self.fastest is not self.recommended:
            f = self.fastest
            lines.append(
                f"fastest feasible: {f.label} — p95 {f.p95_hours:.2f} h for "
                f"E[${f.expected_dollars:.2f}]"
            )
        for reason in self.excluded:
            lines.append(f"excluded: {reason}")
        for reason in od.skipped:
            lines.append(f"skipped: {reason}")
        return "\n".join(lines)


class RiskAdjustedPlanner(ClusterPlanner):
    """The cluster planner with a spot tier and an interruption model.

    The sweep, memory filtering, trace caching and on-demand pricing are
    inherited (including the parallelism-strategy axes — checkpoint costs
    automatically use the *per-device* sharded state under tensor
    parallelism); this class adds per-provider spot markets (the registry
    market, with ``mtbp_hours`` overriding its MTBP when given), a
    checkpoint policy derived from the model's state size at
    :meth:`CheckpointPolicy.for_model
    <repro.spot.checkpoint.CheckpointPolicy.for_model>`'s default disk
    bandwidth and provisioning time, and the risk estimators.
    ``checkpoint_minutes=None`` (the default) gives every spot candidate
    Daly's closed-form optimal cadence ``sqrt(2 * MTBP * C)`` for its own
    fleet hazard and write cost; an explicit menu overrides it — each
    candidate then adopts the menu cadence minimizing its closed-form
    expected makespan, so the cadence axis is optimized out per candidate
    rather than multiplying the plan.

    ``risk_mode`` picks the percentile engine: ``"analytic"`` (default)
    serves p50/p95/completion probability from the exact closed-form
    distribution with no sampling, ``"mc"`` serves them from the batched
    Monte Carlo (the validation path, deterministic per seed), and
    ``"both"`` serves analytic while also running the Monte Carlo so
    ``mc_mean_hours`` reports the sampled mean. Analytic serves, MC
    validates.
    """

    def __init__(
        self,
        model: Union[str, ModelConfig],
        dataset: Optional[str] = "math14k",
        epochs: int = 10,
        num_queries: Optional[int] = None,
        seq_len: Optional[int] = None,
        catalog: Optional[PriceCatalog] = None,
        cache: Optional[SimulationCache] = None,
        mtbp_hours: Optional[float] = None,
        checkpoint_minutes: Optional[Sequence[float]] = None,
        trials: int = DEFAULT_TRIALS,
        seed: int = DEFAULT_SEED,
        risk_mode: str = DEFAULT_RISK_MODE,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            model,
            dataset=dataset,
            epochs=epochs,
            num_queries=num_queries,
            seq_len=seq_len,
            catalog=catalog,
            cache=cache,
            tracer=tracer,
        )
        self.mtbp_hours = mtbp_hours
        if checkpoint_minutes is None:
            self.checkpoint_minutes: Optional[Tuple[float, ...]] = None  # Daly mode
        else:
            self.checkpoint_minutes = tuple(dict.fromkeys(checkpoint_minutes))
            if not self.checkpoint_minutes:
                raise ValueError("checkpoint_minutes must name at least one cadence")
        self._policy_cache: Dict[Tuple[int, float], CheckpointPolicy] = {}
        self.simulator = SpotSimulator(trials=trials, seed=seed)
        self.seed = seed
        if risk_mode not in RISK_MODES:
            raise ValueError(
                f"risk_mode must be one of {RISK_MODES}, got {risk_mode!r}"
            )
        self.risk_mode = risk_mode

    # ------------------------------------------------------------------
    def market_for(self, provider: str) -> SpotMarket:
        """The provider's interruption model: the registry default, with
        the planner-wide MTBP override (``--mtbp-hours``) applied."""
        market = get_spot_market(provider)
        if self.mtbp_hours is not None:
            market = market.with_mtbp(self.mtbp_hours)
        return market

    def _seed_for(self, candidate: ClusterCandidate) -> int:
        """Candidate-deterministic Monte Carlo seed: stable across runs,
        processes and candidate order (crc32, unlike ``hash()``, is unsalted)."""
        return self.seed ^ zlib.crc32(candidate.label.encode())

    def _policy_for(self, interval_minutes: float, tensor_parallel: int) -> CheckpointPolicy:
        """The (cached) checkpoint policy at one cadence for one TP
        degree — write/restart costs use the per-device sharded state."""
        key = (tensor_parallel, interval_minutes)
        policy = self._policy_cache.get(key)
        if policy is None:
            policy = CheckpointPolicy.for_model(
                self.cfg,
                interval_minutes=interval_minutes,
                tensor_parallel=tensor_parallel,
            )
            self._policy_cache[key] = policy
        return policy

    def _candidate_intervals(
        self, work_hours: float, fleet_rate_per_hour: float, tensor_parallel: int
    ) -> Tuple[float, ...]:
        """The cadences offered to one candidate: the explicit menu when
        one was given, else Daly's closed-form optimum for the
        candidate's own fleet hazard and per-shard write cost, clamped to
        the job length (past which the cadence stops mattering)."""
        if self.checkpoint_minutes is not None:
            return self.checkpoint_minutes
        write_seconds = (
            checkpoint_state_gb(self.cfg, tensor_parallel) / DEFAULT_DISK_BANDWIDTH_GBS
        )
        if fleet_rate_per_hour > 0:
            interval = optimal_interval_minutes(
                1.0 / fleet_rate_per_hour, write_seconds
            )
        else:
            interval = float("inf")  # never preempted: one segment
        return (min(interval, max(work_hours, 1e-9) * 60.0),)

    def _risk_distributions(
        self,
        base: ClusterCandidate,
        market: SpotMarket,
        rate: float,
        policy: CheckpointPolicy,
        segments: Segments,
    ) -> RiskDistributions:
        """The candidate's makespan distribution(s) at its resolved
        cadence, per the planner's risk mode: its one ``kind="risk"``
        lookup (see the module docstring for the key). Called only for
        candidates that survive the exclusion check."""
        work = base.hours
        seed = self._seed_for(base)
        key = (
            "spot-risk-dist",
            base.scenario.cluster_key(),
            work,
            market.digest(),
            policy.interval_minutes,
            policy.write_seconds,
            policy.restart_seconds,
            self.risk_mode,
            self.simulator.trials,
            seed,
        )

        def compute() -> RiskDistributions:
            # The analytic and Monte Carlo paths are timed separately
            # (histogram count doubles as "how many distributions were
            # built this run"), so a telemetry export shows what the
            # serving path costs vs what validation costs.
            analytic: Optional[AnalyticMakespanDistribution] = None
            mc: Optional[MakespanDistribution] = None
            if self.risk_mode in ("analytic", "both"):
                started = time.perf_counter()  # repro: allow[no-wall-clock] telemetry latency measurement
                analytic = AnalyticMakespanDistribution(
                    work, rate, policy, segments=segments
                )
                self.cache.metrics.histogram("risk.analytic_seconds").observe(
                    time.perf_counter() - started  # repro: allow[no-wall-clock] telemetry latency measurement
                )
            if self.risk_mode in ("mc", "both"):
                started = time.perf_counter()  # repro: allow[no-wall-clock] telemetry latency measurement
                mc = self.simulator.simulate(
                    work, rate, policy, seed=seed, segments=segments
                )
                self.cache.metrics.histogram("risk.mc_seconds").observe(
                    time.perf_counter() - started  # repro: allow[no-wall-clock] telemetry latency measurement
                )
            return RiskDistributions(
                serving=analytic if analytic is not None else mc, mc=mc
            )

        return self.cache.memoize(key, compute, kind="risk")

    def _spot_candidate(
        self, base: ClusterCandidate
    ) -> Union[Tuple[SpotCandidate, Serving], str]:
        """Risk-price one candidate on the spot tier — the candidate (with
        no deadline, so a completion probability of 1) and its serving
        distribution — or the exclusion reason when spot cannot beat the
        candidate's own on-demand cost.

        The cadence pricing is closed form and runs on every call; the
        exclusion check comes before the distribution lookup, so
        hopeless candidates (hazard eats the discount) never build one."""
        scenario = base.scenario
        market = self.market_for(base.provider)
        rate = market.fleet_rate_per_hour(scenario.num_gpus)
        work = base.hours
        tensor_parallel = scenario.strategy_spec.tensor_parallel
        priced = []
        for minutes in self._candidate_intervals(work, rate, tensor_parallel):
            policy = self._policy_for(minutes, tensor_parallel)
            segments = segment_lengths(work, policy)
            priced.append(
                (
                    expected_makespan_hours(work, rate, policy, segments=segments),
                    policy,
                    segments,
                )
            )
        # Ties (e.g. every cadence at zero hazard) break toward the
        # shortest interval; keying explicitly also keeps min() from
        # comparing the unorderable policy dataclasses themselves.
        expected, policy, segments = min(
            priced, key=lambda entry: (entry[0], entry[1].interval_minutes)
        )
        spot_rate = self.catalog.spot_dollars_per_hour(
            scenario.gpu_spec.name, base.provider
        )
        expected_dollars = expected * spot_rate * scenario.num_gpus
        if expected_dollars > base.dollars:
            return (
                f"{base.label}: spot expected ${expected_dollars:.2f} exceeds "
                f"on-demand ${base.dollars:.2f} "
                f"(mtbp {market.mtbp_hours:g} h x{scenario.num_gpus}, "
                f"checkpoint {policy.interval_minutes:g} min)"
            )
        distributions = self._risk_distributions(base, market, rate, policy, segments)
        serving = distributions.serving
        candidate = SpotCandidate(
            base=base,
            tier=SPOT,
            dollars_per_gpu_hour=spot_rate,
            expected_hours=expected,
            mc_mean_hours=float(distributions.mc_mean_hours),
            p50_hours=float(serving.p50_hours),
            p95_hours=float(serving.p95_hours),
            expected_preemptions=expected_preemptions(
                work, rate, policy, segments=segments
            ),
            completion_probability=1.0,  # no deadline; see SpotSweep.at_deadline
            market=market,
            policy=policy,
        )
        return candidate, serving

    @staticmethod
    def _ondemand_candidate(base: ClusterCandidate) -> SpotCandidate:
        """The uninterrupted tier: a point-mass distribution at the PR 2
        makespan, so the risk view degenerates to (hours, dollars)."""
        hours = base.hours
        return SpotCandidate(
            base=base,
            tier=ONDEMAND,
            dollars_per_gpu_hour=base.dollars_per_gpu_hour,
            expected_hours=hours,
            mc_mean_hours=hours,
            p50_hours=hours,
            p95_hours=hours,
            expected_preemptions=0.0,
            completion_probability=1.0,
        )

    def spot_sweep(self, spot: str = "both", **sweep_kwargs) -> SpotSweep:
        """The memoized, target-free half of :meth:`plan_spot`.

        Its key extends the cluster sweep's key (see
        :meth:`ClusterPlanner.sweep`) with the tier mode, each resolved
        provider's market digest (which carries the MTBP override), the
        checkpoint menu (``None`` in Daly mode), the risk mode, the trial
        count and the seed. A hit is one lookup: the value holds its
        cluster sweep and serving distributions itself, so it never
        re-reads the risk memo.
        """
        key, providers, compute = self._sweep_request(**sweep_kwargs)
        spot_key = (
            "spot-sweep",
            key,
            spot,
            tuple(self.market_for(provider).digest() for provider in providers),
            self.checkpoint_minutes,
            self.risk_mode,
            self.simulator.trials,
            self.seed,
        )
        sweep = self.cache.memoize(
            spot_key, lambda: self._price_tiers(self.cache.memoize(key, compute), spot)
        )
        self.last_sweep = sweep.cluster
        return sweep

    def _price_tiers(self, cluster: ClusterSweep, spot: str) -> SpotSweep:
        """Price every cluster candidate on the requested tiers, then
        order the rows and take the risk frontier."""
        tracer = self.tracer
        with tracer.span("planner.risk") as sp:
            rows: List[Tuple[SpotCandidate, Optional[Serving]]] = []
            excluded: List[str] = []
            missing_spot = set()
            for base in cluster.candidates:
                if spot != "only":
                    rows.append((self._ondemand_candidate(base), None))
                if spot == "off":
                    continue
                gpu_name = base.scenario.gpu_spec.name
                if not self.catalog.has_spot(gpu_name, base.provider):
                    missing_spot.add(
                        f"{base.provider} lists no spot tier for {gpu_name}"
                    )
                    continue
                priced = self._spot_candidate(base)
                if isinstance(priced, str):
                    excluded.append(priced)
                else:
                    rows.append(priced)
            excluded.extend(sorted(missing_spot))
            sp.attributes["candidates"] = len(rows)
            sp.attributes["excluded"] = len(excluded)
        with tracer.span("planner.risk_pareto") as sp:
            rows.sort(key=lambda row: row[0].sort_key())
            candidates = tuple(candidate for candidate, _ in rows)
            position = {id(candidate): i for i, candidate in enumerate(candidates)}
            frontier = tuple(
                position[id(candidate)] for candidate in risk_pareto_frontier(candidates)
            )
            sp.attributes["frontier"] = len(frontier)
        return SpotSweep(
            cluster=cluster,
            candidates=candidates,
            servings=tuple(serving for _, serving in rows),
            frontier=frontier,
            excluded=tuple(excluded),
        )

    def plan_spot(
        self,
        spot: str = "both",
        confidence: float = DEFAULT_CONFIDENCE,
        deadline_hours: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        **sweep_kwargs,
    ) -> SpotPlan:
        """Sweep the cluster space once, then price every candidate on the
        requested tiers and rank the risk view.

        ``spot`` selects the tiers: ``"both"`` (default), ``"only"``
        (spot tier alone), or ``"off"`` (the on-demand tier wrapped in
        the risk view — useful as a baseline with identical shape).
        ``sweep_kwargs`` are the inherited :meth:`ClusterPlanner.plan`
        axis arguments (``gpus``, ``providers``, ``num_gpus``, ...).

        Like :meth:`ClusterPlanner.plan`, a spot plan is a memoized sweep
        (:meth:`spot_sweep`: tier rows with their cadence pricing and
        serving distributions, exclusions, and the frontier in
        ``(p95_hours, expected_dollars, label)`` order) plus a per-call
        selection: each row's completion probability at the deadline,
        the feasible set under ``confidence``, and the picks. Traced as
        ``planner.plan_spot``; on a sweep miss the cluster sweep's
        phases, ``planner.risk`` and ``planner.risk_pareto`` run under
        it, and ``planner.select`` runs on every call.
        """
        if spot not in ("both", "only", "off"):
            raise ValueError(f"spot must be 'both', 'only' or 'off', got {spot!r}")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        tracer = self.tracer
        with tracer.span("planner.plan_spot", risk_mode=self.risk_mode, spot=spot):
            sweep = self.spot_sweep(spot, **sweep_kwargs)
            with tracer.span("planner.select") as sp:
                ondemand = self._select(sweep.cluster, deadline_hours, budget_dollars)
                candidates = sweep.at_deadline(deadline_hours)
                feasible = [
                    c for c in candidates
                    if c.meets(deadline_hours, budget_dollars, confidence)
                ]
                recommended = min(
                    feasible,
                    key=lambda c: (c.expected_dollars, c.p95_hours, c.label),
                    default=None,
                )
                fastest = min(
                    feasible,
                    key=lambda c: (c.p95_hours, c.expected_dollars, c.label),
                    default=None,
                )
                sp.attributes["candidates"] = len(candidates)
        return SpotPlan(
            ondemand=ondemand,
            confidence=confidence,
            spot_mode=spot,
            candidates=candidates,
            frontier=[candidates[i] for i in sweep.frontier],
            recommended=recommended,
            fastest=fastest,
            excluded=list(sweep.excluded),
            risk_mode=self.risk_mode,
        )
