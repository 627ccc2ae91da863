"""Planner-as-a-service: a warm, shared-cache HTTP planning API.

Every plan used to be a cold CLI process, so asking the paper's central
question — "what will this fine-tune cost?" — re-paid interpreter
startup and cache warm-up per query. This package keeps one process
alive around the planners (:class:`~repro.cluster.planner.ClusterPlanner`
and :class:`~repro.spot.planner.RiskAdjustedPlanner`) so every request
shares one warm :class:`~repro.scenarios.cache.SimulationCache`, and
adds four server-grade performance layers:

* **plan memo** — a sequential repeat of a request is served from its
  memoized, serialized plan block (keyed by the request digest, in the
  shared cache) instead of planning and serializing again;
* **request coalescing** — concurrent requests with the same canonical
  request digest share one plan computation (and receive byte-identical
  responses), via :class:`~repro.scenarios.singleflight.SingleFlight`;
* **bounded memory** — an optional LRU ``capacity`` on the shared cache
  drops least-recently-used entries (a later use recomputes them)
  instead of growing without bound;
* **live pricing** — a :class:`PricingCatalog` that refreshes from a
  file/URL feed with a TTL cache and stale-while-revalidate semantics,
  so plans stay servable (marked ``pricing_stale``) when the feed dies.

Run it::

    python -m repro.service.serve --port 8423

Endpoints: ``POST /plan/cluster``, ``POST /plan/spot`` (JSON bodies
mirroring the CLI flags), ``GET /healthz``, ``GET /stats``.

The service is deliberately stdlib-only (``http.server``): the repo's
no-new-dependencies rule applies to the serving layer too.
"""

from .app import PlanningService, RequestError
from .catalog import DEFAULT_TTL_SECONDS, PricingCatalog

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "PlanningService",
    "PricingCatalog",
    "RequestError",
    "make_server",
]


def __getattr__(name):
    # ``serve`` is imported on first use, not here: an eager import would
    # put it in sys.modules before ``python -m repro.service.serve`` runs
    # it as __main__, and runpy would execute the module twice.
    if name == "make_server":
        from .serve import make_server

        return make_server
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
