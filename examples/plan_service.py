"""Scenario: serve "what will this fine-tune cost?" as an API.

The plan CLIs answer one question per process; a product answering it
for many users wants a persistent service where the *first* request
pays for simulation and everyone after rides the shared warm cache.
This example boots the real HTTP server in-process (ephemeral port) and
walks the three serving behaviors:

1. cold vs warm — the second identical request is one plan-memo
   lookup: it simulates nothing and does not plan again;
2. request coalescing — a burst of identical requests computes once
   and everyone receives byte-identical plans;
3. the /stats ledger — where the time went, per the service itself.

Run:  python examples/plan_service.py
"""

import json
import threading
import time
import urllib.request

from repro.service import PlanningService
from repro.service.serve import make_server

BODY = {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}


def post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read())


def cold_then_warm(base: str) -> None:
    print("=== Cold request, then the warm repeat ===")
    start = time.perf_counter()
    cold = post(base, "/plan/cluster", BODY)
    cold_ms = (time.perf_counter() - start) * 1000
    start = time.perf_counter()
    warm = post(base, "/plan/cluster", BODY)
    warm_ms = (time.perf_counter() - start) * 1000
    best = cold["plan"]["cheapest"]
    print(f"  cheapest: {best['label']} — ${best['dollars']:.2f} "
          f"in {best['hours']:.2f} h")
    print(f"  cold: {cold_ms:7.1f} ms, {cold['engine']['simulations']} simulations")
    print(f"  warm: {warm_ms:7.1f} ms, {warm['engine']['simulations']} simulations "
          f"({warm['engine']['hits']} lookup: the plan memo)")
    assert warm["plan"] == cold["plan"]
    print("  -> identical plan, neither re-simulated nor re-planned\n")


def coalesced_burst(base: str, service: PlanningService) -> None:
    print("=== Eight identical spot requests at once ===")
    body = {"model": "mixtral", "deadline_hours": 24}  # full sweep: seconds cold
    responses = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i: int) -> None:
        barrier.wait()
        responses[i] = json.dumps(post(base, "/plan/spot", body), sort_keys=True)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    before = service.flight.stats()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    after = service.flight.stats()
    flight = {key: after[key] - before[key] for key in ("leaders", "shared")}
    print(f"  burst served in {seconds:.2f} s: {flight['leaders']} "
          f"computation(s), {flight['shared']} coalesced, "
          f"{len(set(responses))} distinct response(s)")
    print(f"  -> {flight['shared']} of 8 rode along on an in-flight "
          "computation instead of queueing behind it\n")


def stats_ledger(base: str) -> None:
    print("=== The /stats ledger ===")
    stats = get(base, "/stats")
    requests, cache = stats["requests"], stats["cache"]
    print(f"  requests: {requests['total']} total, "
          f"{requests['coalesced']} coalesced, {requests['errors']} errors")
    print(f"  cache:    {cache['simulations']} simulations, {cache['hits']} hits, "
          f"{cache['entries']} resident traces (capacity "
          f"{cache['capacity'] or 'unbounded'})")
    print(f"  pricing:  {stats['pricing']['source']}, "
          f"stale={stats['pricing']['stale']}")


if __name__ == "__main__":
    service = PlanningService()
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://{host}:{port}"
    print(f"serving on {base}\n")
    try:
        cold_then_warm(base)
        coalesced_burst(base, service)
        stats_ledger(base)
    finally:
        server.shutdown()
        server.server_close()
