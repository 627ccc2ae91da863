"""The planning service: request normalization, coalescing, planning.

One :class:`PlanningService` owns the shared warm state — a
:class:`~repro.scenarios.cache.SimulationCache` (optionally
LRU-bounded), a :class:`~repro.service.catalog.PricingCatalog`, and
a :class:`~repro.scenarios.singleflight.SingleFlight` request coalescer
— and answers ``plan("cluster" | "spot", body)`` with the serialized
JSON response. The HTTP layer (:mod:`repro.service.serve`) is a thin
adapter over this class, so tests and benchmarks drive the service
in-process without sockets.

Request bodies mirror the plan CLIs' flags field-for-field (``model``,
``gpu``, ``num_gpus``, ``deadline_hours``, ... — see
:func:`normalize_cluster_request` / :func:`normalize_spot_request`),
with identical defaults, so a service request and the equivalent CLI
invocation produce the same plan.

Coalescing key: the sha256 of the *normalized* request (not the raw
body — two spellings of the same sweep are one key) plus the pricing
catalog digest (a price refresh must split otherwise-identical
requests) plus the API version. Concurrent requests with equal digests
share one plan computation and receive byte-identical response strings.
The response body carries no wall-clock (latency lives in the service
metrics and the optional telemetry block), so the only thing that
distinguishes a warm repeat from its cold predecessor is the ``engine``
delta block — which is exactly what it is for.

The per-request ``engine`` block reports the cache-counter deltas the
request observed (simulations, hits, ...). Under concurrent *distinct*
requests the deltas can attribute a neighbor's traffic (the counters
are process-global); for sequential or coalesced-identical traffic —
everything the acceptance tests assert on — they are exact.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.plan import _parse_densities, resolve_gpu_name, resolve_model_key
from ..cluster.planner import (
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    ClusterPlanner,
)
from ..gpu.multigpu import INTERCONNECTS
from ..scenarios import SimulationCache, SingleFlight
from ..serialization import dumps
from ..spot.planner import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RISK_MODE,
    DEFAULT_SEED,
    RISK_MODES,
    RiskAdjustedPlanner,
)
from ..spot.risk import DEFAULT_TRIALS
from ..telemetry.export import metric_events, telemetry_block, write_events
from ..telemetry.manifest import build_manifest, grid_digest
from ..telemetry.metrics import MetricsRegistry, merge_snapshots
from ..telemetry.tracer import Tracer
from .catalog import PricingCatalog

#: Bumped on any change to the request normalization or response layout
#: — it salts the coalescing digest, so two service versions can never
#: alias each other's in-flight computations.
API_VERSION = 1

DENSITIES = ("sparse", "dense", "both")
SPOT_MODES = ("both", "only", "off")


class RequestError(Exception):
    """A malformed request: reported as the HTTP ``status`` (default
    400) with the message as the ``error`` body, never a traceback."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# Request normalization
# ---------------------------------------------------------------------------

def _reject_unknown(body: Dict[str, object], known: Sequence[str], kind: str) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise RequestError(
            f"unknown {kind} request field(s) {unknown}; known: {sorted(known)}"
        )


def _choice(body, field, choices, default):
    value = body.get(field, default)
    if value not in choices:
        raise RequestError(f"{field!r} must be one of {list(choices)}, got {value!r}")
    return value


def _int_field(body, field, default=None, minimum=1):
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(f"{field!r} must be >= {minimum}, got {value}")
    return value


def _number_field(body, field, default=None):
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{field!r} must be a number, got {value!r}")
    value = float(value)
    if not value > 0:  # also rejects NaN
        raise RequestError(f"{field!r} must be positive, got {value}")
    return value


def _listify(value, field) -> List[object]:
    """A scalar or list body value as a non-empty list."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise RequestError(f"{field!r} must not be an empty list")
    return items


def _name_list(body, field, resolver: Callable[[str], str]) -> Optional[List[str]]:
    value = body.get(field)
    if value is None:
        return None
    names = []
    for item in _listify(value, field):
        if not isinstance(item, str):
            raise RequestError(f"{field!r} entries must be strings, got {item!r}")
        try:
            names.append(resolver(item))
        except KeyError as exc:
            raise RequestError(str(exc)) from exc
    return names


def _positive_list(body, field, kind, default):
    """A scalar or list of positive numbers, deduped preserving order —
    the body-level mirror of the CLIs' repeatable comma-separated flags.
    With ``kind=int`` every entry must be an integer that is not a bool
    (:func:`_int_field`'s rule); with ``kind=float`` any number is
    accepted and converted."""
    value = body.get(field)
    if value is None:
        return list(default) if default is not None else None
    accepted = int if kind is int else (int, float)
    items = []
    for item in _listify(value, field):
        if isinstance(item, bool) or not isinstance(item, accepted):
            noun = "whole numbers" if kind is int else "numbers"
            raise RequestError(f"{field!r} entries must be {noun}, got {item!r}")
        item = kind(item)
        if not item > 0:
            raise RequestError(f"{field!r} entries must be positive, got {item}")
        items.append(item)
    return list(dict.fromkeys(items))


def _interconnects(body) -> List[str]:
    value = body.get("interconnect")
    if value is None:
        return list(DEFAULT_INTERCONNECTS)
    names = []
    for item in _listify(value, "interconnect"):
        if item not in INTERCONNECTS:
            raise RequestError(
                f"'interconnect' must be one of {sorted(INTERCONNECTS)}, got {item!r}"
            )
        names.append(item)
    return list(dict.fromkeys(names))


_CLUSTER_FIELDS = (
    "model", "dataset", "gpu", "provider", "num_gpus", "interconnect",
    "density", "batch_size", "parallelism", "max_tp", "grad_accum",
    "epochs", "num_queries", "seq_len", "deadline_hours", "budget_dollars",
)

_SPOT_FIELDS = _CLUSTER_FIELDS + (
    "spot", "mtbp_hours", "checkpoint_minutes", "confidence",
    "risk_mode", "trials", "seed",
)


def normalize_cluster_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/cluster`` body: every field
    present, resolved (model aliases, GPU prefixes) and validated, with
    defaults identical to ``python -m repro.cluster.plan``. Raises
    :class:`RequestError` on anything malformed. The result is both the
    coalescing-digest input and the ``request`` echo in the response."""
    _reject_unknown(body, _CLUSTER_FIELDS, "cluster")
    model = body.get("model")
    if not isinstance(model, str) or not model:
        raise RequestError("'model' is required and must be a string")
    try:
        model = resolve_model_key(model)
    except KeyError as exc:
        raise RequestError(str(exc)) from exc
    dataset = body.get("dataset", "math14k")
    if not isinstance(dataset, str) or not dataset:
        raise RequestError(f"'dataset' must be a non-empty string, got {dataset!r}")
    parallelism = _choice(body, "parallelism", PARALLELISM_MODES, "dp")
    max_tp = _int_field(body, "max_tp", default=DEFAULT_MAX_TP)
    if parallelism == "tp" and max_tp < 2:
        raise RequestError("'parallelism': 'tp' needs 'max_tp' >= 2")
    return {
        "model": model,
        "dataset": dataset,
        "gpu": _name_list(body, "gpu", resolve_gpu_name),
        "provider": _name_list(body, "provider", str),
        "num_gpus": _positive_list(body, "num_gpus", int, DEFAULT_NUM_GPUS),
        "interconnect": _interconnects(body),
        "density": _choice(body, "density", DENSITIES, "both"),
        "batch_size": _positive_list(body, "batch_size", int, None),
        "parallelism": parallelism,
        "max_tp": max_tp,
        "grad_accum": _positive_list(body, "grad_accum", int, (1,)),
        "epochs": _int_field(body, "epochs", default=10),
        "num_queries": _int_field(body, "num_queries"),
        "seq_len": _int_field(body, "seq_len"),
        "deadline_hours": _number_field(body, "deadline_hours"),
        "budget_dollars": _number_field(body, "budget_dollars"),
    }


def normalize_spot_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/spot`` body: the cluster fields
    plus the risk knobs, defaults identical to
    ``python -m repro.spot.plan``."""
    _reject_unknown(body, _SPOT_FIELDS, "spot")
    cluster_body = {k: v for k, v in body.items() if k in _CLUSTER_FIELDS}
    request = normalize_cluster_request(cluster_body)
    confidence = body.get("confidence", DEFAULT_CONFIDENCE)
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise RequestError(f"'confidence' must be a number, got {confidence!r}")
    confidence = float(confidence)
    if not 0.0 <= confidence <= 1.0:
        raise RequestError(f"'confidence' must be in [0, 1], got {confidence}")
    seed = body.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise RequestError(f"'seed' must be an integer, got {seed!r}")
    request.update(
        {
            "spot": _choice(body, "spot", SPOT_MODES, "both"),
            "mtbp_hours": _number_field(body, "mtbp_hours"),
            "checkpoint_minutes": _positive_list(body, "checkpoint_minutes", float, None),
            "confidence": confidence,
            "risk_mode": _choice(body, "risk_mode", RISK_MODES, DEFAULT_RISK_MODE),
            "trials": _int_field(body, "trials", default=DEFAULT_TRIALS),
            "seed": seed,
        }
    )
    return request


def request_digest(kind: str, request: Dict[str, object], catalog_digest: str) -> str:
    """The coalescing key: sha256 over the canonical JSON of the
    normalized request, the pricing-catalog digest and the API version."""
    text = json.dumps(
        {"api": API_VERSION, "kind": kind, "catalog": catalog_digest, "request": request},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class PlanningService:
    """Shared warm planning state plus the request pipeline.

    ``telemetry`` / ``telemetry_out`` / ``run_store`` mirror the CLIs'
    flags: any of them enables per-request tracing (a fresh
    ``service.request`` span tree per request, wrapping the planner's
    own phases) and adds a ``telemetry`` block to responses.
    ``telemetry_out`` atomically rewrites the JSONL event log after
    every request (the file always holds the latest request's events);
    ``run_store`` is a :class:`~repro.telemetry.runstore.RunStore` that
    ingests each request as one run, so the PR 8 analyzer reads a
    serving window out of the box.
    """

    def __init__(
        self,
        cache: Optional[SimulationCache] = None,
        capacity: Optional[int] = None,
        pricing: Optional[PricingCatalog] = None,
        telemetry: bool = False,
        telemetry_out: Optional[str] = None,
        run_store=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if cache is None:
            cache = SimulationCache(capacity=capacity)
        elif capacity is not None:
            raise ValueError("pass either an explicit cache or a capacity, not both")
        self.cache = cache
        self.pricing = pricing if pricing is not None else PricingCatalog()
        self.flight = SingleFlight()
        self._telemetry_out = telemetry_out
        self._run_store = run_store
        self._traced = bool(telemetry or telemetry_out or run_store is not None)
        self._clock = clock
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("service.requests")
        self._coalesced = self.metrics.counter("service.coalesced")
        self._errors = self.metrics.counter("service.errors")
        self._request_seconds = self.metrics.histogram("service.request_seconds")
        self._started_at = clock()

    # ------------------------------------------------------------------
    def plan(self, kind: str, body: Dict[str, object]) -> str:
        """The serialized JSON response for one plan request.

        Raises :class:`RequestError` for malformed bodies; any other
        exception is a planning bug (the HTTP layer maps it to 500 and
        keeps serving).
        """
        started = time.perf_counter()
        self._requests.inc()
        try:
            if kind == "cluster":
                request = normalize_cluster_request(body)
            elif kind == "spot":
                request = normalize_spot_request(body)
            else:
                raise RequestError(f"unknown plan kind {kind!r}", status=404)
            catalog, stale = self.pricing.get()
            catalog_digest = catalog.digest()
            digest = request_digest(kind, request, catalog_digest)
            response, shared = self.flight.do(
                digest,
                lambda: self._compute(kind, request, catalog, stale, digest, catalog_digest),
            )
            if shared:
                self._coalesced.inc()
            return response
        except Exception:
            self._errors.inc()
            raise
        finally:
            self._request_seconds.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    def _compute(
        self, kind, request, catalog, stale, digest, catalog_digest
    ) -> str:
        tracer = Tracer(enabled=self._traced)
        before = self.cache.stats()
        with tracer.span("service.request", kind=kind, digest=digest[:16]):
            planner, plan = self._run_planner(kind, request, catalog, tracer)
        after = self.cache.stats()
        payload = {
            "kind": kind,
            "request": request,
            "request_digest": digest,
            "pricing": {"digest": catalog_digest, "stale": stale},
            "pricing_stale": stale,
            "engine": {
                "simulations": after.simulations - before.simulations,
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
                "risk_hits": after.risk_hits - before.risk_hits,
                "risk_misses": after.risk_misses - before.risk_misses,
                "evictions": after.evictions - before.evictions,
            },
            "plan": plan.to_payload(),
        }
        if self._traced:
            payload["telemetry"] = self._export_telemetry(
                kind, request, tracer, after, planner
            )
        return dumps(payload, indent=2)

    def _run_planner(self, kind, request, catalog, tracer):
        common = dict(
            dataset=request["dataset"],
            epochs=request["epochs"],
            num_queries=request["num_queries"],
            seq_len=request["seq_len"],
            catalog=catalog,
            cache=self.cache,
            tracer=tracer,
        )
        sweep = dict(
            gpus=request["gpu"],
            providers=request["provider"],
            num_gpus=tuple(request["num_gpus"]),
            interconnects=tuple(request["interconnect"]),
            densities=_parse_densities(request["density"]),
            batch_sizes=tuple(request["batch_size"]) if request["batch_size"] else None,
            parallelism=request["parallelism"],
            max_tp=request["max_tp"],
            grad_accums=tuple(request["grad_accum"]),
        )
        if kind == "cluster":
            planner = ClusterPlanner(request["model"], **common)
            plan = planner.plan(
                deadline_hours=request["deadline_hours"],
                budget_dollars=request["budget_dollars"],
                **sweep,
            )
        else:
            checkpoint = request["checkpoint_minutes"]
            planner = RiskAdjustedPlanner(
                request["model"],
                mtbp_hours=request["mtbp_hours"],
                checkpoint_minutes=tuple(checkpoint) if checkpoint else None,
                trials=request["trials"],
                seed=request["seed"],
                risk_mode=request["risk_mode"],
                **common,
            )
            plan = planner.plan_spot(
                spot=request["spot"],
                confidence=request["confidence"],
                deadline_hours=request["deadline_hours"],
                budget_dollars=request["budget_dollars"],
                **sweep,
            )
        return planner, plan

    def _export_telemetry(self, kind, request, tracer, stats, planner):
        """Mirror ``finish_telemetry`` per request: manifest from the
        cache's own accounting, JSONL rewrite, run-store ingest, and the
        response's telemetry block."""
        grid = planner.last_grid
        snapshot = merge_snapshots(self.cache.metrics.snapshot(), self.metrics.snapshot())
        manifest = build_manifest(
            f"repro.service.plan_{kind}",
            request,
            tracer,
            stats,
            grid=grid_digest(grid) if grid is not None else None,
        )
        if self._telemetry_out:
            write_events(self._telemetry_out, tracer, snapshot, manifest)
        if self._run_store is not None:
            events = list(tracer.export())
            events.extend(metric_events(snapshot))
            events.append(manifest)
            self._run_store.ingest_events(events, timestamp=self._clock())
        return telemetry_block(tracer, snapshot, manifest)

    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, object]:
        return {"status": "ok"}

    def stats_payload(self) -> Dict[str, object]:
        """The ``/stats`` body: request counters, coalescing stats, the
        shared cache's accounting (plus its LRU bound) and the pricing
        catalog's freshness."""
        stats = self.cache.stats()
        return {
            "uptime_seconds": max(0.0, self._clock() - self._started_at),
            "requests": {
                "total": self._requests.value,
                "coalesced": self._coalesced.value,
                "errors": self._errors.value,
            },
            "flight": self.flight.stats(),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "simulations": stats.simulations,
                "risk_hits": stats.risk_hits,
                "risk_misses": stats.risk_misses,
                "evictions": stats.evictions,
                "entries": stats.entries,
                "capacity": self.cache.capacity,
            },
            "pricing": self.pricing.status(),
        }
