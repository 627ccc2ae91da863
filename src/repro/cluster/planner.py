"""Pareto cost/time planning over the cluster space.

The paper answers "what will this fine-tune cost?" for one GPU at a
time (Table IV); the planner answers it for clusters, *before any
training happens*: given a model, a dataset and a target (deadline
hours and/or budget dollars), it sweeps

    GPUs x providers x cluster sizes x interconnects x densities

through the scenario engine, applies the data-parallel all-reduce model
to each (cached) replica trace, prices the result against the provider
catalog, and returns

* every candidate, deterministically ordered;
* the Pareto frontier of (wall-clock hours, total dollars) — the
  configurations where going faster necessarily costs more;
* the cheapest and fastest configurations meeting the target.

A plan is two steps. The sweep (grid, skip reasons, priced candidates
in order, frontier) does not depend on the target, so it is memoized in
the shared :class:`SimulationCache` as one derived result; the
selection (feasible set and picks) runs per call. A what-if re-plan
with another deadline or budget reuses the sweep.

Determinism: the trace sweep is serial, candidate construction is pure
and ordering is by explicit sort keys, so equal inputs give equal plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..cloud.pricing import DEFAULT_CATALOG, PriceCatalog
from ..core.cost import dataset_num_queries, wall_clock_hours
from ..gpu.multigpu import (
    Interconnect,
    MultiGPUEstimate,
    estimate_from_trace,
    get_interconnect,
)
from ..gpu.parallelism import (
    DataParallel,
    ParallelismStrategy,
    TensorParallel,
    tp_degrees,
)
from ..gpu.specs import GPU_REGISTRY, GPUSpec, get_gpu
from ..memory.estimator import EFFECTIVE_SEQ_LEN, max_batch_size
from ..models.registry import get_model_spec
from ..scenarios import ScenarioGrid, SimulationCache, SweepRunner, resolve_cache
from ..scenarios.scenario import ModelConfig
from ..telemetry.tracer import Tracer, resolve_tracer
from .scenario import ClusterScenario

DEFAULT_NUM_GPUS: Tuple[int, ...] = (1, 2, 4, 8)
DEFAULT_INTERCONNECTS: Tuple[str, ...] = ("nvlink", "pcie-gen4")

# --parallelism: how the planner lays candidates out on the hardware.
# "dp" lays out full replicas only, "tp" forces
# tensor parallelism, "auto" enumerates both — including TP degrees for
# cells pure data parallelism cannot fit at all.
PARALLELISM_MODES: Tuple[str, ...] = ("dp", "tp", "auto")
DEFAULT_MAX_TP = 8


def strategy_payload(scenario: ClusterScenario) -> Dict[str, object]:
    """The parallelism keys a candidate dict carries — empty for the
    default data-parallel layout, so a plain data-parallel plan names no
    layout. Shared by the cluster and spot candidate dicts."""
    strategy = scenario.strategy_spec
    if strategy.is_default:
        return {}
    return {
        "parallelism": strategy.spec(),
        "tensor_parallel": strategy.tensor_parallel,
        "data_parallel": strategy.data_parallel_ways(scenario.num_gpus),
        "grad_accum": strategy.grad_accum,
    }


@dataclass(frozen=True)
class ClusterCandidate:
    """One priced point of the plan space: a cluster scenario at one
    provider, with its data-parallel estimate and cost projection."""

    scenario: ClusterScenario
    provider: str
    dollars_per_gpu_hour: float
    estimate: MultiGPUEstimate
    num_queries: int
    epochs: int

    @property
    def total_queries(self) -> int:
        return self.num_queries * self.epochs

    @cached_property
    def hours(self) -> float:
        # Cached: queries_per_second walks the kernel trace, and sorting,
        # dominance sweeps and the spot tier's exclusion arithmetic all
        # reread hours/dollars O(n log n) times per plan.
        return wall_clock_hours(self.total_queries, self.estimate.queries_per_second)

    @cached_property
    def dollars(self) -> float:
        return self.hours * self.dollars_per_gpu_hour * self.scenario.num_gpus

    @cached_property
    def label(self) -> str:
        # Cached (writes around the frozen dataclass into __dict__):
        # sorting, dominance sweeps and the spot planner's seeds all key
        # on the label, and rebuilding the tag string per comparison
        # dominated the warm plan's profile.
        return f"{self.scenario.label(include_gpu=True)}_{self.provider}"

    def meets(
        self,
        deadline_hours: Optional[float] = None,
        budget_dollars: Optional[float] = None,
    ) -> bool:
        if deadline_hours is not None and self.hours > deadline_hours:
            return False
        if budget_dollars is not None and self.dollars > budget_dollars:
            return False
        return True

    def sort_key(self) -> Tuple:
        """Deterministic total order: fast before slow, cheap before
        expensive, label as the final tie-break."""
        return (self.hours, self.dollars, self.label)

    def to_dict(self) -> Dict[str, object]:
        scenario = self.scenario
        payload = {
            "label": self.label,
            "gpu": scenario.gpu_spec.name,
            "provider": self.provider,
            "num_gpus": scenario.num_gpus,
            "interconnect": scenario.interconnect_spec.name,
            "dense": scenario.dense,
            "per_gpu_batch": scenario.batch_size,
            "global_batch": scenario.global_batch_size(),
            "dollars_per_gpu_hour": self.dollars_per_gpu_hour,
            "queries_per_second": self.estimate.queries_per_second,
            "scaling_efficiency": self.estimate.scaling_efficiency,
            "allreduce_seconds": self.estimate.allreduce_seconds,
            "hours": self.hours,
            "dollars": self.dollars,
        }
        extra = strategy_payload(scenario)
        if extra:
            extra["tp_comm_seconds"] = self.estimate.tp_comm_seconds
            payload.update(extra)
        return payload


def dominance_sweep(candidates, sort_key, cost) -> List:
    """Generic weak-dominance Pareto sweep: sort by ``sort_key`` (time
    axis first) and keep candidates while ``cost`` strictly improves. A
    candidate survives iff it is strictly cheaper than every candidate at
    least as fast as it, so a slower configuration that saves no money is
    dropped and ties collapse to the first in deterministic sort order.
    Shared by this frontier and the spot planner's risk frontier."""
    frontier: List = []
    best_cost = float("inf")
    for candidate in sorted(candidates, key=sort_key):
        if cost(candidate) < best_cost:
            frontier.append(candidate)
            best_cost = cost(candidate)
    return frontier


def pareto_frontier(candidates: Sequence[ClusterCandidate]) -> List[ClusterCandidate]:
    """The non-dominated candidates under (minimize hours, minimize
    dollars), ordered fastest-first."""
    return dominance_sweep(
        candidates, ClusterCandidate.sort_key, lambda c: c.dollars
    )


@dataclass
class ClusterPlan:
    """The planner's full answer for one model/dataset/target."""

    model_name: str
    dataset: Optional[str]
    seq_len: int
    num_queries: int
    epochs: int
    deadline_hours: Optional[float]
    budget_dollars: Optional[float]
    candidates: List[ClusterCandidate]
    frontier: List[ClusterCandidate]
    cheapest: Optional[ClusterCandidate]
    fastest: Optional[ClusterCandidate]
    skipped: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> List[ClusterCandidate]:
        return [
            c for c in self.candidates
            if c.meets(self.deadline_hours, self.budget_dollars)
        ]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable plan (``--json``), deterministically ordered."""
        return {
            "model": self.model_name,
            "dataset": self.dataset,
            "seq_len": self.seq_len,
            "num_queries": self.num_queries,
            "epochs": self.epochs,
            "deadline_hours": self.deadline_hours,
            "budget_dollars": self.budget_dollars,
            "num_candidates": len(self.candidates),
            "num_feasible": len(self.feasible),
            "frontier": [c.to_dict() for c in self.frontier],
            "cheapest": self.cheapest.to_dict() if self.cheapest else None,
            "fastest": self.fastest.to_dict() if self.fastest else None,
            "skipped": list(self.skipped),
        }

    def to_table(self, top: int = 10) -> str:
        """Frontier + recommendation as a report-style text table."""
        lines = [
            f"== cluster plan: {self.model_name} on {self.dataset or f'seq {self.seq_len}'} "
            f"({self.num_queries} queries x {self.epochs} epochs) ==",
        ]
        target = []
        if self.deadline_hours is not None:
            target.append(f"deadline {self.deadline_hours:g} h")
        if self.budget_dollars is not None:
            target.append(f"budget ${self.budget_dollars:g}")
        lines.append(
            f"target: {', '.join(target) if target else 'none (full frontier)'}; "
            f"{len(self.feasible)}/{len(self.candidates)} candidates feasible"
        )
        width = max([len(c.label) for c in self.frontier[:top]] + [12])
        lines.append(
            f"{'pareto-optimal configuration':<{width}}  {'hours':>8}  {'dollars':>9}  "
            f"{'q/s':>6}  {'eff':>5}"
        )
        for candidate in self.frontier[:top]:
            lines.append(
                f"{candidate.label:<{width}}  {candidate.hours:>8.2f}  "
                f"{candidate.dollars:>9.2f}  {candidate.estimate.queries_per_second:>6.2f}  "
                f"{candidate.estimate.scaling_efficiency:>5.2f}"
            )
        if len(self.frontier) > top:
            lines.append(f"... {len(self.frontier) - top} more frontier points (--top)")
        if self.cheapest is not None:
            lines.append(
                f"cheapest feasible: {self.cheapest.label} — "
                f"${self.cheapest.dollars:.2f} in {self.cheapest.hours:.2f} h"
            )
        else:
            lines.append("cheapest feasible: none — no configuration meets the target")
        if self.fastest is not None and self.fastest is not self.cheapest:
            lines.append(
                f"fastest feasible:  {self.fastest.label} — "
                f"{self.fastest.hours:.2f} h for ${self.fastest.dollars:.2f}"
            )
        for reason in self.skipped:
            lines.append(f"skipped: {reason}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ClusterSweep:
    """The target-free half of a cluster plan, memoized per sweep key
    (see :meth:`ClusterPlanner.sweep`): the swept grid, its skip
    reasons, the priced candidates in ``(hours, dollars, label)`` order
    and their Pareto frontier. Immutable; each plan gets fresh lists."""

    grid: ScenarioGrid
    skipped: Tuple[str, ...]
    candidates: Tuple[ClusterCandidate, ...]
    frontier: Tuple[ClusterCandidate, ...]

    @cached_property
    def grid_digest(self) -> Optional[str]:
        """The run manifest's digest of the swept grid, computed on the
        first read (~2 ms per 48 cells), so untraced callers never pay
        for it and traced ones pay once per sweep."""
        from ..telemetry.manifest import grid_digest

        return grid_digest(self.grid)


class ClusterPlanner:
    """Sweeps the cluster space through the scenario engine and prices it.

    ``model`` accepts a registry key or a config; the dataset supplies the
    padded sequence length and query count unless overridden. All
    simulation flows through the (shared) :class:`SimulationCache`, so a
    warm planner pass — and every cluster size beyond the first within a
    cold pass — performs zero redundant ``simulate_step`` calls; the
    sweep itself is memoized there too, so a re-plan with another
    target performs no trace lookups at all.
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
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cfg = get_model_spec(model).config if isinstance(model, str) else model
        self.dataset = dataset
        if seq_len is None:
            if dataset is None:
                raise ValueError("ClusterPlanner needs a dataset or an explicit seq_len")
            if dataset not in EFFECTIVE_SEQ_LEN:
                raise KeyError(
                    f"unknown dataset {dataset!r}; known: {sorted(EFFECTIVE_SEQ_LEN)}"
                )
            seq_len = EFFECTIVE_SEQ_LEN[dataset]
        self.seq_len = seq_len
        if num_queries is None:
            if dataset is None:
                raise ValueError("ClusterPlanner needs a dataset or an explicit num_queries")
            num_queries = dataset_num_queries(dataset)
        self.num_queries = num_queries
        self.epochs = epochs
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        self.cache = resolve_cache(cache)
        self.tracer = resolve_tracer(tracer)
        # The most recent plan's sweep, kept for run manifests (its grid
        # digest is computed only when a traced caller reads it).
        self.last_sweep: Optional[ClusterSweep] = None

    # ------------------------------------------------------------------
    def _resolve_gpus(
        self, gpus: Optional[Sequence[Union[str, GPUSpec]]], providers: Sequence[str]
    ) -> List[GPUSpec]:
        if gpus is not None:
            return [get_gpu(g) if isinstance(g, str) else g for g in gpus]
        # Default: every registered GPU priced by at least one requested
        # provider, in deterministic name order.
        priced = {
            name for provider in providers for name in self.catalog.gpus(provider)
        }
        return [GPU_REGISTRY[name] for name in sorted(priced) if name in GPU_REGISTRY]

    def _strategy_degrees(self, parallelism: str, max_tp: int) -> Tuple[int, ...]:
        """TP degrees a parallelism mode enumerates (1 = data parallel)."""
        if parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, got {parallelism!r}"
            )
        if parallelism == "dp":
            return (1,)
        if parallelism == "tp":
            degrees = tp_degrees(max_tp)
            if not degrees:
                raise ValueError(
                    f"parallelism='tp' needs max_tp >= 2, got {max_tp}"
                )
            return degrees
        return (1,) + tp_degrees(max_tp)

    def scenarios(
        self,
        gpus: Optional[Sequence[Union[str, GPUSpec]]] = None,
        providers: Optional[Sequence[str]] = None,
        num_gpus: Sequence[int] = DEFAULT_NUM_GPUS,
        interconnects: Sequence[Union[str, Interconnect]] = DEFAULT_INTERCONNECTS,
        densities: Sequence[bool] = (False, True),
        batch_sizes: Optional[Sequence[int]] = None,
        parallelism: str = "dp",
        max_tp: int = DEFAULT_MAX_TP,
        grad_accums: Sequence[int] = (1,),
    ) -> Tuple[ScenarioGrid, List[str]]:
        """The candidate grid plus human-readable skip reasons.

        ``batch_sizes=None`` uses the memory-oracle per-device maximum for
        each (GPU, density, TP degree) cell — the throughput-optimal
        choice; explicit batch sizes are kept only where they fit.
        ``parallelism`` selects the layout axis: ``"dp"`` sweeps full
        replicas only; ``"tp"``/``"auto"`` also enumerate
        tensor-parallel degrees (powers of two up to ``max_tp``), so a
        cell where the model does not fit one device is *priced* at the
        degrees that shard it into fitting — skip reasons are reserved
        for cells no enumerated degree can fit. ``grad_accums`` adds the
        accumulation axis; every depth shares its cell's per-device trace.
        """
        providers = list(providers) if providers is not None else self.catalog.providers()
        resolved_gpus = self._resolve_gpus(gpus, providers)
        degrees = self._strategy_degrees(parallelism, max_tp)
        accums = list(dict.fromkeys(grad_accums))
        if not accums or any(a < 1 for a in accums):
            raise ValueError(f"grad_accums must name depths >= 1, got {grad_accums!r}")
        # Duplicate axis values (e.g. --num-gpus 4,4, or "nvlink" next to
        # NVLINK) would duplicate every candidate; collapse them while
        # preserving order.
        sizes = list(dict.fromkeys(num_gpus))
        links = list(dict.fromkeys(get_interconnect(link) for link in interconnects))
        scenarios: List[ClusterScenario] = []
        skipped: List[str] = []
        for gpu in resolved_gpus:
            # Filter unpriced (GPU, provider) pairs *before* simulating:
            # without a price there is nothing to rank, so tracing the
            # replica would be wasted work ending in an empty, unexplained
            # plan.
            if not set(self.catalog.providers_for(gpu.name)).intersection(providers):
                skipped.append(
                    f"{gpu.name} is not priced by provider(s) {sorted(providers)}"
                )
                continue
            for dense in densities:
                density = "dense" if dense else "sparse"
                cell_count = len(scenarios)
                fits_any = False  # some degree fits memory at batch 1
                batches_any = False  # ...and had an admissible batch size
                dp_mbs = 0
                for degree in degrees:
                    mbs = max_batch_size(
                        self.cfg, gpu, self.seq_len, dense, tensor_parallel=degree
                    )
                    if mbs < 1:
                        continue
                    fits_any = True
                    if degree == 1:
                        dp_mbs = mbs
                    if batch_sizes is None:
                        batches: List[int] = [mbs]
                    else:
                        batches = [b for b in batch_sizes if 1 <= b <= mbs]
                    if batches:
                        batches_any = True
                    for batch in batches:
                        for accum in accums:
                            strategy: ParallelismStrategy = (
                                DataParallel(grad_accum=accum)
                                if degree == 1
                                else TensorParallel(grad_accum=accum, degree=degree)
                            )
                            for n in sizes:
                                if not strategy.fits(n):
                                    continue
                                for link in links:
                                    scenarios.append(
                                        ClusterScenario(
                                            model=self.cfg,
                                            gpu=gpu,
                                            batch_size=batch,
                                            seq_len=self.seq_len,
                                            dense=dense,
                                            dataset=self.dataset,
                                            num_gpus=n,
                                            interconnect=link,
                                            strategy=strategy,
                                        )
                                    )
                if len(scenarios) > cell_count:
                    continue  # the cell produced candidates; nothing to explain
                if not fits_any:
                    # Truly impossible cell: no enumerated layout fits.
                    reason = (
                        f"{self.cfg.name} ({density}) does not fit "
                        f"on {gpu.name} at seq_len={self.seq_len}"
                    )
                    if parallelism != "dp":
                        reason += f" at any tensor-parallel degree <= {max_tp}"
                    skipped.append(reason)
                elif not batches_any:
                    if parallelism == "dp":
                        skipped.append(
                            f"no requested batch size fits on {gpu.name} "
                            f"({density}, max {dp_mbs})"
                        )
                    else:
                        skipped.append(
                            f"no requested batch size fits on {gpu.name} "
                            f"({density}) at any tensor-parallel degree <= {max_tp}"
                        )
                else:
                    # Memory fits and batches exist, but no requested
                    # cluster size hosts a fitting degree — point the
                    # user at --num-gpus, not --batch-size. (Degree 1
                    # fits every size, so this branch is TP-only.)
                    skipped.append(
                        f"no requested cluster size (sizes {sizes}) hosts a "
                        f"tensor-parallel degree <= {max_tp} fitting "
                        f"{self.cfg.name} ({density}) on {gpu.name}"
                    )
        return ScenarioGrid(scenarios), skipped

    def _sweep_request(
        self,
        gpus: Optional[Sequence[Union[str, GPUSpec]]] = None,
        providers: Optional[Sequence[str]] = None,
        num_gpus: Sequence[int] = DEFAULT_NUM_GPUS,
        interconnects: Sequence[Union[str, Interconnect]] = DEFAULT_INTERCONNECTS,
        densities: Sequence[bool] = (False, True),
        batch_sizes: Optional[Sequence[int]] = None,
        parallelism: str = "dp",
        max_tp: int = DEFAULT_MAX_TP,
        grad_accums: Sequence[int] = (1,),
    ) -> Tuple[Tuple, List[str], Callable[[], ClusterSweep]]:
        """``(memo key, resolved providers, compute)`` for one sweep.

        The key holds every input that shapes the sweep: the planner's
        model, dataset, sequence length, query count and epochs, the
        catalog digest (the sweep holds prices), the resolved providers
        and GPUs, and every axis. Deadlines and budgets are not inputs.
        """
        providers = (
            list(dict.fromkeys(providers)) if providers is not None
            else self.catalog.providers()
        )
        resolved_gpus = tuple(self._resolve_gpus(gpus, providers))
        axes = dict(
            num_gpus=tuple(num_gpus),
            interconnects=tuple(get_interconnect(link) for link in interconnects),
            densities=tuple(densities),
            batch_sizes=None if batch_sizes is None else tuple(batch_sizes),
            parallelism=parallelism,
            max_tp=max_tp,
            grad_accums=tuple(grad_accums),
        )
        key = (
            "cluster-sweep",
            self.cfg,
            self.dataset,
            self.seq_len,
            self.num_queries,
            self.epochs,
            self.catalog.digest(),
            tuple(providers),
            resolved_gpus,
            *axes.values(),
        )
        return key, providers, lambda: self._run_sweep(resolved_gpus, providers, **axes)

    def sweep(self, **axes) -> ClusterSweep:
        """The memoized, target-free half of :meth:`plan` for the given
        axis arguments (``gpus``, ``providers``, ``num_gpus``, ...): one
        shared-cache lookup, counted as a derived hit or miss."""
        key, _, compute = self._sweep_request(**axes)
        sweep = self.cache.memoize(key, compute)
        self.last_sweep = sweep
        return sweep

    def _run_sweep(
        self, gpus: Sequence[GPUSpec], providers: Sequence[str], **axes
    ) -> ClusterSweep:
        """Enumerate, simulate, apply each strategy, price, then order the
        candidates and take their frontier, one span per phase."""
        tracer = self.tracer
        with tracer.span("planner.enumerate") as sp:
            grid, skipped = self.scenarios(gpus=gpus, providers=providers, **axes)
            sp.attributes["cells"] = len(grid)
            sp.attributes["skipped"] = len(skipped)
        with tracer.span("planner.simulate"):
            points = SweepRunner(cache=self.cache, tracer=tracer).run(grid)
        with tracer.span("planner.strategy"):
            estimates = []
            for point in points:
                scenario = point.scenario
                assert isinstance(scenario, ClusterScenario)
                estimates.append(
                    estimate_from_trace(
                        scenario.config,
                        point.trace,
                        scenario.num_gpus,
                        scenario.interconnect_spec,
                        strategy=scenario.strategy_spec,
                    )
                )
        with tracer.span("planner.price") as sp:
            candidates: List[ClusterCandidate] = []
            for point, estimate in zip(points, estimates):
                scenario = point.scenario
                priced = set(self.catalog.providers_for(scenario.gpu_spec.name))
                for provider in providers:
                    if provider not in priced:
                        continue  # this provider does not rent this GPU
                    rate = self.catalog.dollars_per_hour(
                        scenario.gpu_spec.name, provider
                    )
                    candidates.append(
                        ClusterCandidate(
                            scenario=scenario,
                            provider=provider,
                            dollars_per_gpu_hour=rate,
                            estimate=estimate,
                            num_queries=self.num_queries,
                            epochs=self.epochs,
                        )
                    )
            sp.attributes["candidates"] = len(candidates)
        with tracer.span("planner.pareto") as sp:
            candidates.sort(key=ClusterCandidate.sort_key)
            frontier = pareto_frontier(candidates)
            sp.attributes["frontier"] = len(frontier)
        return ClusterSweep(
            grid=grid,
            skipped=tuple(skipped),
            candidates=tuple(candidates),
            frontier=tuple(frontier),
        )

    def _select(
        self,
        sweep: ClusterSweep,
        deadline_hours: Optional[float],
        budget_dollars: Optional[float],
    ) -> ClusterPlan:
        """The per-call half of a plan: the feasible set and the picks
        against this target, over fresh lists of the sweep's rows."""
        feasible = [c for c in sweep.candidates if c.meets(deadline_hours, budget_dollars)]
        return ClusterPlan(
            model_name=self.cfg.name,
            dataset=self.dataset,
            seq_len=self.seq_len,
            num_queries=self.num_queries,
            epochs=self.epochs,
            deadline_hours=deadline_hours,
            budget_dollars=budget_dollars,
            candidates=list(sweep.candidates),
            frontier=list(sweep.frontier),
            cheapest=min(
                feasible, key=lambda c: (c.dollars, c.hours, c.label), default=None
            ),
            fastest=min(
                feasible, key=lambda c: (c.hours, c.dollars, c.label), default=None
            ),
            skipped=list(sweep.skipped),
        )

    def plan(
        self,
        gpus: Optional[Sequence[Union[str, GPUSpec]]] = None,
        providers: Optional[Sequence[str]] = None,
        num_gpus: Sequence[int] = DEFAULT_NUM_GPUS,
        interconnects: Sequence[Union[str, Interconnect]] = DEFAULT_INTERCONNECTS,
        densities: Sequence[bool] = (False, True),
        batch_sizes: Optional[Sequence[int]] = None,
        deadline_hours: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        parallelism: str = "dp",
        max_tp: int = DEFAULT_MAX_TP,
        grad_accums: Sequence[int] = (1,),
    ) -> ClusterPlan:
        """Sweep, price, and rank the full cluster space.

        A plan is a memoized sweep (:meth:`sweep`: grid, skip reasons,
        priced candidates in ``(hours, dollars, label)`` order and the
        frontier, none of which depends on the target) plus a per-call
        selection of the feasible set and the cheapest/fastest picks. A
        re-plan of the same sweep with another deadline or budget makes
        one cache lookup and no trace lookups.

        Traced as a ``planner.plan`` span. When the sweep runs, its
        phases are children: enumerate (grid construction), simulate
        (the trace sweep), strategy (applying the parallelism model to
        each trace), price (provider rates), pareto (ordering and
        frontier). ``planner.select`` (feasible set and picks) runs on
        every call.
        """
        with self.tracer.span("planner.plan", model=self.cfg.name):
            sweep = self.sweep(
                gpus=gpus,
                providers=providers,
                num_gpus=num_gpus,
                interconnects=interconnects,
                densities=densities,
                batch_sizes=batch_sizes,
                parallelism=parallelism,
                max_tp=max_tp,
                grad_accums=grad_accums,
            )
            with self.tracer.span("planner.select") as sp:
                plan = self._select(sweep, deadline_hours, budget_dollars)
                sp.attributes["candidates"] = len(plan.candidates)
        return plan
