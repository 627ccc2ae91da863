"""The planning service: request normalization, coalescing, planning.

One :class:`PlanningService` owns the shared warm state — a
:class:`~repro.scenarios.cache.SimulationCache` (optionally
LRU-bounded), a :class:`~repro.service.catalog.PricingCatalog`, and
a :class:`~repro.scenarios.singleflight.SingleFlight` request coalescer
— and answers ``plan("cluster" | "spot", body)`` with the serialized
JSON response. The HTTP layer (:mod:`repro.service.serve`) is a thin
adapter over this class, so tests and benchmarks drive the service
in-process without sockets.

Request bodies mirror the plan CLIs' flags by construction: a body is
parsed into the same :class:`~repro.cluster.request.ClusterPlanRequest`
/ :class:`~repro.spot.request.SpotPlanRequest` the CLI parses its argv
into (``model``, ``gpu``, ``num_gpus``, ``deadline_hours``, ...), with
the same defaults, resolvers and bounds, and the request plans itself.
So a service request and the equivalent CLI invocation produce the
same plan, and reject the same inputs.

Coalescing key: the sha256 of the *normalized* request (not the raw
body — two spellings of the same sweep are one key) plus the pricing
catalog digest (a price refresh must split otherwise-identical
requests) plus the API version. Concurrent requests with equal digests
share one plan computation and receive byte-identical response strings.
The response body carries no wall-clock (latency lives in the service
metrics and the optional telemetry block), so the only thing that
distinguishes a warm repeat from its cold predecessor is the ``engine``
delta block — which is exactly what it is for.

Plan memo: a plan is a pure function of what the digest covers, and
so is most of its response text. Each digest's memo entry (key
``("plan-response", digest, traced)`` in the shared cache's
``SimulationCache.memoize``) holds pre-rendered, uncompressed text: the
response prefix from ``{`` through the pricing block's ``"stale": ``
(kind, echo, request digest and catalog digest), the ``plan`` member,
and the planner's grid digest for the traced manifest. About 5 KB per
distinct request, bounded by the cache's ``capacity``. A sequential
repeat then skips planning and serialization: it fills this request's
pricing staleness and ``engine`` deltas into one fixed template and
joins the parts, giving the same bytes a fresh computation would. Nothing
on that path releases the GIL, so a warm repeat takes it once and never
queues behind a cold plan a second time. The memo shares the cache's LRU
bound, single-flight and ``hits``/``misses`` accounting, so a warm
repeat's ``engine`` block reads ``hits: 1``.

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
from typing import Callable, Dict, Optional

from ..cluster.request import ClusterPlanRequest, RequestError
from ..scenarios import SimulationCache, SingleFlight
from ..serialization import dumps
from ..spot.request import SpotPlanRequest
from ..telemetry.export import metric_events, telemetry_block, write_events
from ..telemetry.manifest import build_manifest, grid_digest
from ..telemetry.metrics import MetricsRegistry, merge_snapshots
from ..telemetry.tracer import Tracer
from .catalog import PricingCatalog

#: Bumped on any change to the request normalization or response layout
#: — it salts the coalescing digest, so two service versions can never
#: alias each other's in-flight computations.
API_VERSION = 1

#: Plan kind (the ``/plan/<kind>`` path) -> its request type.
REQUEST_TYPES = {"cluster": ClusterPlanRequest, "spot": SpotPlanRequest}


def normalize_cluster_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/cluster`` body (see
    :meth:`~repro.cluster.request.ClusterPlanRequest.normalized`)."""
    return ClusterPlanRequest.from_body(body).normalized()


def normalize_spot_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/spot`` body."""
    return SpotPlanRequest.from_body(body).normalized()


def request_digest(kind: str, request: Dict[str, object], catalog_digest: str) -> str:
    """The coalescing key: sha256 over the canonical JSON of the
    normalized request, the pricing-catalog digest and the API version."""
    text = json.dumps(
        {"api": API_VERSION, "kind": kind, "catalog": catalog_digest, "request": request},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _member_text(value) -> str:
    """``value`` serialized as a member of a top-level object dumped with
    ``indent=2``: every line after the first gains the two spaces of its
    nesting (JSON strings hold no raw newlines, so each one is a line
    break)."""
    return dumps(value, indent=2).replace("\n", "\n  ")


#: The end of the pricing block after its prefix, plus ``pricing_stale``,
#: ``engine`` and the ``plan`` key, laid out as ``dumps(..., indent=2)``
#: lays them out: filled with the two staleness flags and the six
#: ``engine`` deltas.
_HEAD_TAIL = (
    '%s\n  },\n  "pricing_stale": %s,\n  "engine": {\n'
    '    "simulations": %d,\n    "hits": %d,\n    "misses": %d,\n'
    '    "risk_hits": %d,\n    "risk_misses": %d,\n    "evictions": %d\n'
    '  },\n  "plan": '
)


def _head_prefix(kind: str, echo, digest: str, catalog_digest: str) -> str:
    """The response text from ``{`` through the pricing block's
    ``"stale": ``: every member before the first per-request value,
    all of them fixed by the request digest."""
    head = dumps(
        {
            "kind": kind,
            "request": echo,
            "request_digest": digest,
            "pricing": {"digest": catalog_digest, "stale": False},
        },
        indent=2,
    )
    return head[: -len("false\n  }\n}")]


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
            request_type = REQUEST_TYPES.get(kind)
            if request_type is None:
                raise RequestError(f"unknown plan kind {kind!r}", status=404)
            request = request_type.from_body(body)
            echo = request.normalized()
            catalog, stale = self.pricing.get()
            catalog_digest = catalog.digest()
            digest = request_digest(kind, echo, catalog_digest)
            response, shared = self.flight.do(
                digest,
                lambda: self._compute(request, echo, catalog, stale, digest, catalog_digest),
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
        self, request, echo, catalog, stale, digest, catalog_digest
    ) -> str:
        kind = request.kind
        tracer = Tracer(enabled=self._traced)
        before = self.cache.stats()
        with tracer.span("service.request", kind=kind, digest=digest[:16]):
            with tracer.span("service.plan_memo"):
                prefix, plan_text, grid = self.cache.memoize(
                    ("plan-response", digest, self._traced),
                    lambda: (
                        _head_prefix(kind, echo, digest, catalog_digest),
                        *self._plan_entry(request, catalog, tracer),
                    ),
                )
        after = self.cache.stats()
        flag = "true" if stale else "false"
        # The response is dumps(head + plan [+ telemetry], indent=2),
        # assembled by position from the memoized prefix, this request's
        # values in _HEAD_TAIL and the memoized plan text.
        parts = [
            prefix,
            _HEAD_TAIL % (
                flag,
                flag,
                after.simulations - before.simulations,
                after.hits - before.hits,
                after.misses - before.misses,
                after.risk_hits - before.risk_hits,
                after.risk_misses - before.risk_misses,
                after.evictions - before.evictions,
            ),
            plan_text,
        ]
        if self._traced:
            telemetry = self._export_telemetry(kind, echo, tracer, after, grid)
            parts += [',\n  "telemetry": ', _member_text(telemetry)]
        parts.append("\n}")
        return "".join(parts)

    def _plan_entry(self, request, catalog, tracer):
        """The plan half of a plan-memo entry: the ``plan`` member text
        and the swept grid's digest. Only a traced service reads the
        digest (for the manifest), and at ~2 ms per 48-cell grid an
        untraced one skips it; the memo key carries ``traced`` so
        services sharing one cache never read each other's entries."""
        planner, plan = request.run(cache=self.cache, catalog=catalog, tracer=tracer)
        grid = planner.last_grid
        return (
            _member_text(plan.to_payload()),
            grid_digest(grid) if self._traced and grid is not None else None,
        )

    def _export_telemetry(self, kind, request, tracer, stats, grid):
        """Mirror ``finish_telemetry`` per request: manifest from the
        cache's own accounting, JSONL rewrite, run-store ingest, and the
        response's telemetry block. ``grid`` is the plan's grid digest."""
        snapshot = merge_snapshots(self.cache.metrics.snapshot(), self.metrics.snapshot())
        manifest = build_manifest(
            f"repro.service.plan_{kind}", request, tracer, stats, grid=grid
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
                "derived_entries": stats.derived_entries,
                "capacity": self.cache.capacity,
            },
            "pricing": self.pricing.status(),
        }
