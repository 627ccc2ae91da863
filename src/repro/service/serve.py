"""Serve plans over HTTP: ``python -m repro.service.serve``.

Usage::

    python -m repro.service.serve --port 8423
    python -m repro.service.serve --capacity 4096 --pricing-feed prices.json \\
        --telemetry-out /tmp/service-events.jsonl --run-store /tmp/runstore

    curl -s localhost:8423/healthz
    curl -s -XPOST localhost:8423/plan/cluster \\
        -d '{"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}'
    curl -s -XPOST localhost:8423/plan/spot -d '{"model": "mixtral"}'
    curl -s localhost:8423/stats

Stdlib-only: a :class:`ThreadingHTTPServer` dispatching to one shared
:class:`~repro.service.app.PlanningService`. Threads matter — they are
what request coalescing coalesces — but all planning state is the
service's (thread-safe) cache, so the handler layer stays stateless.

``--run-store`` / ``$REPRO_RUN_STORE`` resolves exactly like the plan
CLIs' flag.
"""

from __future__ import annotations

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional

from ..serialization import dumps
from .app import PlanningService, RequestError
from .catalog import DEFAULT_TTL_SECONDS, PricingCatalog

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8423

_PLAN_PATHS = {"/plan/cluster": "cluster", "/plan/spot": "spot"}

#: The largest request body the service reads. A plan request is a few
#: hundred bytes; a larger declared body is refused before any read.
MAX_BODY_BYTES = 1 << 20


class PlanningRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the bound :class:`PlanningService`."""

    service: PlanningService  # bound per server by make_server()
    server_version = "repro-plan-service/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out in two sends, and Nagle would
    # hold the body for the client's ~40 ms delayed ACK on keep-alive.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Quiet by default: the service's own metrics (/stats) are the
        # observability surface; per-request access lines would only add
        # nondeterministic stderr noise to tests and CI smoke output.
        pass

    # ------------------------------------------------------------------
    def _send(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:  # this reply is the connection's last: say so
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, dumps({"error": message}, indent=2))

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            self._send(200, dumps(self.service.health_payload(), indent=2))
        elif self.path == "/stats":
            self._send(200, dumps(self.service.stats_payload(), indent=2))
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        # Consume the declared body before any reply, early errors included,
        # so a keep-alive connection stays at the next request's first byte.
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            # The body's end is unknowable, so neither is the next request's start.
            self.close_connection = True
            self._send_error(
                400, f"Content-Length must be a non-negative integer, got {declared!r}")
            return
        digits = declared.lstrip("0") or "0"
        # Compared by length first: int() refuses strings past 4300 digits.
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            # Refused unread, so the next request's start is unknown too.
            self.close_connection = True
            self._send_error(
                413, f"Content-Length exceeds the {MAX_BODY_BYTES}-byte limit "
                     "on request bodies")
            return
        length = int(digits)
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client stopped sending early: the body is incomplete.
            self.close_connection = True
            self._send_error(
                400, f"request body ended after {len(raw)} of the {length} "
                     "bytes its Content-Length declared")
            return
        kind = _PLAN_PATHS.get(self.path)
        if kind is None:
            self._send_error(404, f"unknown path {self.path!r}")
            return
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            self._send_error(400, "request body is not valid JSON")
            return
        if not isinstance(body, dict):
            self._send_error(400, "request body must be a JSON object")
            return
        try:
            response = self.service.plan(kind, body)
        except RequestError as exc:
            self._send_error(exc.status, str(exc))
        except Exception as exc:  # a planning bug: report it, keep serving
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, response)


def make_server(
    service: PlanningService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` threaded server bound to ``service``.
    ``port=0`` picks an ephemeral port (tests/examples); read it back
    from ``server.server_address``."""
    handler = type(
        "BoundPlanningRequestHandler",
        (PlanningRequestHandler,),
        {"service": service},
    )
    return ThreadingHTTPServer((host, port), handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default: {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port, 0 for ephemeral (default: {DEFAULT_PORT})")
    parser.add_argument("--capacity", type=int, default=None, metavar="N",
                        help="LRU bound on resident traces and derived results; "
                             "an evicted entry is recomputed on its next use "
                             "(default: unbounded)")
    parser.add_argument("--pricing-feed", default=None, metavar="PATH_OR_URL",
                        help="live pricing feed: a JSON file path or http(s) URL "
                             "speaking PriceCatalog.to_payload()'s layout "
                             "(default: the built-in static catalog)")
    parser.add_argument("--pricing-ttl", type=float, default=DEFAULT_TTL_SECONDS,
                        metavar="SECONDS",
                        help="how long a fetched catalog serves before "
                             "stale-while-revalidate kicks in "
                             f"(default: {DEFAULT_TTL_SECONDS:g})")
    parser.add_argument("--telemetry", action="store_true",
                        help="trace every request (responses gain a 'telemetry' "
                             "block)")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="rewrite FILE with the latest request's JSONL "
                             "events after each request (implies tracing)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="ingest each request into the run store at DIR for "
                             "repro.telemetry.analyze/compare (implies tracing; "
                             "default: $REPRO_RUN_STORE if set, else off)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from ..telemetry.cli import resolve_run_store

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        service = PlanningService(
            capacity=args.capacity,
            pricing=PricingCatalog(
                feed=args.pricing_feed, ttl_seconds=args.pricing_ttl
            ),
            telemetry=args.telemetry,
            telemetry_out=args.telemetry_out,
            run_store=resolve_run_store(args.run_store),
        )
    except ValueError as exc:
        parser.error(str(exc))
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving plans on http://{host}:{port} "
        "(POST /plan/cluster /plan/spot; GET /healthz /stats)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
