"""Workload ``serve-mixed``: the planning service under keep-alive clients.

One ``repro.service.serve`` child with default flags (ephemeral port),
driven by a closed loop of ``nproc`` clients on keep-alive connections:
each client sends its next request only after the previous reply. The
seeded stream (``plangen``) is mostly repeats of earlier requests,
re-spelled; a few new requests are sent as concurrent identical pairs,
and a few bodies break one field and must get a 400 naming it.

One request in 12.5 is new. Cold cluster plans hide inside the ~44 ms
keep-alive stall, cold spot plans do not. A run deals each of the 48
spot cards (``plangen``) once: these first deals, simulation and risk
both cold, and their concurrent twins are the slowest 3.5% of requests,
so p99 sits inside the cold-request mode rather than on its edge, and
the mode holds the same work whatever the seed. Later deals of a card
only change fields that leave its simulations and risk warm.

Set-up is spawning the service until the first 200 from ``/healthz``,
``SETUP_REPEATS`` times (the last server is the one measured);
``setup_s`` is the median. The p50/p99 are client-side, per request, over every request
sent (malformed probes included).
"""

from __future__ import annotations

import os
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import SETUP_REPEATS, RunRecord, Scratch, p50, p99
from plangen import Item, PlanRequestGenerator, StreamStats
from server import Client, Server, spawn_server, stop_server, without_engine

NEW_SHARE = 0.08
MIN_REQUESTS = 1000  # so p99 has ten samples beyond it; the run outlasts --seconds if need be
PAIR_SHARE = 0.25  # of new requests
MALFORMED_SHARE = 0.02


def client_count() -> int:
    return max(1, os.cpu_count() or 1)


def make_stream(seed: int, clients: int, stats: StreamStats, limit: Optional[int] = None):
    return PlanRequestGenerator(seed).stream(
        NEW_SHARE, PAIR_SHARE if clients > 1 else 0.0, MALFORMED_SHARE,
        stats=stats, limit=limit,
    )


class ClosedLoop:
    """``clients`` threads draining one shared stream until a deadline
    (or the stream's end). A pair's twin is always drawn next, by
    another client, and both halves meet at a barrier before sending."""

    def __init__(self, port: int, stream, clients: int, deadline: Optional[float] = None,
                 min_requests: int = 0) -> None:
        self.port = port
        self.stream = stream
        self.clients = clients
        self.deadline = deadline
        self.min_requests = min_requests
        self.drawn = 0
        self.lock = threading.Lock()
        self.barrier: Optional[threading.Barrier] = None
        self.twin_pending = False
        # (item, status, latency_s, response bytes)
        self.results: List[Tuple[Item, int, float, bytes]] = []
        self.errors: List[str] = []

    def _draw(self) -> Tuple[Optional[Item], Optional[threading.Barrier]]:
        with self.lock:
            if not self.twin_pending and self.deadline is not None \
                    and time.perf_counter() >= self.deadline and self.drawn >= self.min_requests:
                return None, None
            item = next(self.stream, None)
            self.drawn += 1
            barrier = None
            if item is not None and item.pair and self.clients > 1:
                if item.new:
                    self.barrier = threading.Barrier(2)
                self.twin_pending = item.new
                barrier = self.barrier
            return item, barrier

    def _client(self) -> None:
        client = Client(self.port)
        try:
            while True:
                item, barrier = self._draw()
                if item is None:
                    return
                if barrier is not None:
                    try:
                        barrier.wait(timeout=30)
                    except threading.BrokenBarrierError:
                        pass  # sent anyway, just not concurrently
                start = time.perf_counter()
                status, data = client.request("POST", item.path, item.body_bytes())
                latency = time.perf_counter() - start
                with self.lock:
                    self.results.append((item, status, latency, data))
        except Exception as exc:  # a dead connection ends this client; counted as failed
            with self.lock:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            client.close()

    def run(self) -> float:
        threads = [threading.Thread(target=self._client) for _ in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    def latencies(self) -> List[float]:
        return [r[2] for r in self.results]


def check_responses(record: RunRecord, loop: ClosedLoop, label: str) -> Dict[str, int]:
    """One check per request: a malformed probe must get a 400 naming
    its field; any other request a 200 whose response, ``engine`` block
    aside, equals the first response to the same canonical request.
    Returns the status-class counts."""
    statuses: Dict[str, int] = {"2xx": 0, "4xx": 0, "5xx": 0}
    first: Dict[str, str] = {}
    for item, status, _, data in sorted(loop.results, key=lambda r: r[0].index):
        statuses[f"{status // 100}xx"] = statuses.get(f"{status // 100}xx", 0) + 1
        if item.malformed_field is not None:
            named = status == 400 and item.malformed_field in data.decode("utf-8", "replace")
            record.check(named, f"malformed {item.malformed_field!r} got {status}: {data[:120]!r}")
            continue
        if status != 200:
            record.check(False, f"{item.path} got {status}: {data[:160]!r}")
            continue
        text = without_engine(data)
        key = item.request.key
        if key not in first:
            first[key] = text
            record.output(f"{label}/{item.request.kind}/{len(first)}", text.encode())
        record.check(text == first[key], f"request {item.index} differs from the first response to it")
    for error in loop.errors:
        record.check(False, f"client error: {error}")
    return statuses


def check_stats(record: RunRecord, loop: ClosedLoop, statuses: Dict[str, int], stats) -> None:
    """``/stats`` counts every failed plan call, so its error count must
    equal the client-seen 400s for malformed fields plus every 5xx."""
    rejected = sum(1 for r in loop.results if r[0].malformed_field is not None and r[1] == 400)
    errors = stats["requests"]["errors"]
    record.check(
        errors == rejected + statuses["5xx"],
        f"/stats errors {errors} != client-seen 400s {rejected} + 5xx {statuses['5xx']}",
    )


def run(seed: int, seconds: float) -> RunRecord:
    record = RunRecord("serve-mixed", seed)
    clients = client_count()
    stream_stats = StreamStats()
    with Scratch() as cwd:
        ready: List[float] = []
        server: Optional[Server] = None
        for attempt in range(SETUP_REPEATS):
            server = spawn_server(cwd)
            ready.append(server.ready_s)
            if attempt < SETUP_REPEATS - 1:
                stop_server(server)
        record.metric("setup_s", median(ready), "s", len(ready))
        try:
            loop = ClosedLoop(server.port, make_stream(seed, clients, stream_stats), clients,
                              deadline=time.perf_counter() + seconds, min_requests=MIN_REQUESTS)
            elapsed = loop.run()
            stats = Client(server.port).get_json("/stats")
        finally:
            stop_server(server)
    statuses = check_responses(record, loop, "serve")
    check_stats(record, loop, statuses, stats)

    latencies = loop.latencies()
    count = len(latencies)
    median_ms, tail_ms = 1000 * p50(latencies), 1000 * p99(latencies)
    record.metric("p50_ms", median_ms, "ms", count)
    record.metric("tail_ms", tail_ms, "ms", count)
    record.metric("throughput_per_s", count / elapsed, "1/s", count)
    record.metric("peak_rss_mb", server.maxrss_mb, "MB", 1)
    record.figure("req_p50_ms", median_ms, "ms", count)
    record.figure("req_p99_ms", tail_ms, "ms", count)
    record.figure("req_per_s", count / elapsed, "1/s", count)
    record.figure("error_rate", record.failed / max(1, record.attempted), "ratio", record.attempted)
    new = [r[2] for r in loop.results if r[0].new]
    warm = [r[2] for r in loop.results if not r[0].new and r[0].malformed_field is None]
    if new:
        record.figure("req_first_p50_ms", 1000 * p50(new), "ms", len(new))
    if warm:
        record.figure("req_repeat_p50_ms", 1000 * p50(warm), "ms", len(warm))
    record.notes["stream"] = stream_stats.to_dict()
    record.notes["clients"] = clients
    record.notes["statuses"] = statuses
    record.notes["/stats"] = {
        "coalesced": stats["requests"]["coalesced"],
        "simulations": stats["cache"]["simulations"],
        "risk_misses": stats["cache"]["risk_misses"],
    }
    return record
