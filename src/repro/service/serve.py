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

The transport is HTTP/1.1 (or 1.0) with keep-alive. The handler reads
the request line and header lines straight from the socket into a dict
keyed by lower-cased field name, keeping the stdlib's guards (at most
100 header lines of at most 64 KiB each). A request body must be framed
by ``Content-Length``: any ``Transfer-Encoding`` is refused with 501,
and conflicting ``Content-Length`` values or folded header lines with
400. Every error reply is a JSON ``{"error": ...}`` object, and a
rejected request line or header block also closes the connection. Each
reply, head and body, is one write to the socket and leaves in one
send.

``--run-store`` / ``$REPRO_RUN_STORE`` resolves exactly like the plan
CLIs' flag.
"""

from __future__ import annotations

import argparse
import json
import re
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

#: The stdlib's header guards: at most this many header lines, each at
#: most MAX_LINE_BYTES long; more is a 431.
MAX_HEADERS = 100
MAX_LINE_BYTES = 65536

_HEADER_END = (b"\r\n", b"\n", b"")  # a blank line, or the client hung up
_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")


class PlanningRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the bound :class:`PlanningService`."""

    service: PlanningService  # bound per server by make_server()
    server_version = "repro-plan-service/1"
    protocol_version = "HTTP/1.1"
    # The write stream stays unbuffered (wbufsize 0): _send writes each
    # reply, head and body, in one call, so it leaves in one send, and the
    # interim 100 Continue goes out as soon as handle_expect_100 writes it.
    # TCP_NODELAY: that interim reply and its final one are two sends,
    # and Nagle would hold the second for the client's ~40 ms delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Quiet by default: the service's own metrics (/stats) are the
        # observability surface; per-request access lines would only add
        # nondeterministic stderr noise to tests and CI smoke output.
        pass

    # ------------------------------------------------------------------
    def _send(self, status: int, body: str) -> None:
        # The same head send_response/send_header/end_headers build, as
        # one string and one write with the body: the stdlib's calls (and
        # the access-log line that log_message drops) cost ~3 µs more.
        data = body.encode("utf-8")
        # This reply is the connection's last: say so.
        close = "Connection: close\r\n" if self.close_connection else ""
        self.wfile.write(
            f"{self.protocol_version} {status:d} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n{close}\r\n".encode("latin-1") + data)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, dumps({"error": message}, indent=2))

    def _reject(self, status: int, message: str) -> bool:
        """Refuse the request as unreadable: a JSON error, then close,
        since the next request's start is unknown."""
        self.close_connection = True
        self._send_error(status, message)
        return False

    def send_error(self, code, message=None, explain=None) -> None:
        # The stdlib's own rejections (a request line over 64 KiB, a
        # method with no do_* handler) reply in JSON too.
        self._reject(code, message or self.responses[code][0])

    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Read the request line and headers; on a rejection, reply and
        return False.

        ``self.headers`` becomes a dict keyed by lower-cased field name,
        holding each field's first value with surrounding whitespace
        stripped.
        """
        self.request_version = ""  # not HTTP/0.9, so an error reply gets its status line
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False  # a blank line: close without a reply, as the stdlib does
        if len(words) != 3:
            return self._reject(400, f"bad request line {self.requestline!r}")
        command, path, version = words
        if version != "HTTP/1.1" and version != "HTTP/1.0":
            if _HTTP_VERSION.fullmatch(version):
                return self._reject(
                    505, f"{version} is not supported; send HTTP/1.1 or HTTP/1.0")
            return self._reject(400, f"bad request version {version!r}")
        self.request_version = version
        self.close_connection = version == "HTTP/1.0"
        self.command = command
        # gh-87389, as in the stdlib: '//' must not read as a scheme-less URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = {}
        readline = self.rfile.readline
        lines = 0
        while True:
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                return self._reject(
                    431, f"a header line exceeds {MAX_LINE_BYTES} bytes")
            if line in _HEADER_END:
                break
            lines += 1
            if lines > MAX_HEADERS:
                return self._reject(431, f"more than {MAX_HEADERS} header lines")
            if line[0] in b" \t":
                return self._reject(400, "folded (obs-fold) header lines are not accepted")
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or name[-1] in " \t":
                return self._reject(400, f"malformed header line {line[:80]!r}")
            key = name.lower()
            value = value.strip(" \t\r\n")
            first = headers.setdefault(key, value)
            if key == "content-length" and first != value:
                return self._reject(
                    400, f"conflicting Content-Length values {first!r} and {value!r}")
        self.headers = headers

        if "transfer-encoding" in headers:
            # Only Content-Length framing is read; a chunked body would be
            # left in the stream and parsed as the next request.
            return self._reject(
                501, "Transfer-Encoding is not supported; send the body "
                     "with a Content-Length")
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (version == "HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"):
            if not self.handle_expect_100():
                return False
        return True

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
        declared = self.headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            # The body's end is unknowable, so neither is the next request's start.
            self._reject(
                400, f"Content-Length must be a non-negative integer, got {declared!r}")
            return
        digits = declared.lstrip("0") or "0"
        # Compared by length first: int() refuses strings past 4300 digits.
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            # Refused unread, so the next request's start is unknown too.
            self._reject(
                413, f"Content-Length exceeds the {MAX_BODY_BYTES}-byte limit "
                     "on request bodies")
            return
        length = int(digits)
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client stopped sending early: the body is incomplete.
            self._reject(
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
