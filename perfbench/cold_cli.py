"""Workload ``cold-cli``: fresh plan and report processes, one at a time.

Each round runs one ``repro.cluster.plan --json``, one ``repro.spot.plan
--json`` and one ``repro.experiments.report --json`` process in a seeded
order, with nothing warm: no trace store, no run store, a scratch cwd.
This is what a user pays once per question, import and simulation
included.

Set-up is the hermeticity probe: a cold cluster plan with
``--telemetry-out`` whose manifest must report simulations, run three
times; ``setup_s`` is the median. After the timed loop, a check phase
starts the service and asks it every distinct plan the CLIs produced:
the service's ``plan`` block must equal the CLI's ``--json`` bytes.

This workload is run by hand or by ``--workload all``, not gated by
``BENCHMARK.json``: its figures swing with the host (see ``run.py``).
"""

from __future__ import annotations

import json
import random
import time
from statistics import median
from pathlib import Path
from typing import Dict, List

from common import SETUP_REPEATS, RunRecord, Scratch, p50, run_process
from plangen import Item, PlanRequestGenerator, StreamStats
from server import Client, plan_text, spawn_server, stop_server

KINDS = ("cluster", "spot", "report")
REPORT_ARGV = ["-m", "repro.experiments.report", "--json"]
PROBE_ARGV = ["-m", "repro.cluster.plan", "--model", "mixtral", "--json",
              "--telemetry-out", "probe.jsonl"]
NEW_SHARE = 0.8


def parses(data: bytes) -> bool:
    try:
        json.loads(data)
    except ValueError:
        return False
    return True


def telemetry_simulations(path: Path) -> int:
    """The simulations a ``--telemetry-out`` run's manifest reports; the
    file must pass the schema-v1 validator first."""
    from repro.telemetry.schema import validate_file

    validate_file(path)
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event["type"] == "manifest":
            return event["cache"]["simulations"]
    return 0


def probe_simulations(record: RunRecord) -> float:
    """One hermeticity probe; returns its wall time."""
    with Scratch() as cwd:
        proc = run_process(PROBE_ARGV, cwd)
        ok = proc.returncode == 0 and telemetry_simulations(cwd / "probe.jsonl") > 0
        record.check(ok, f"cold probe plan exited {proc.returncode} or reported zero "
                         "simulations (warm state leaked in)")
    return proc.wall_s


def run(seed: int, seconds: float) -> RunRecord:
    record = RunRecord("cold-cli", seed)
    setups = [probe_simulations(record) for _ in range(SETUP_REPEATS)]
    record.metric("setup_s", median(setups), "s", len(setups))

    order = random.Random(seed)
    stats = {"cluster": StreamStats(), "spot": StreamStats()}
    streams = {
        kind: PlanRequestGenerator(seed * 2 + i, kinds=(kind,))
        .stream(NEW_SHARE, stats=stats[kind])
        for i, kind in enumerate(("cluster", "spot"))
    }
    walls: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    cpus: List[float] = []
    rss: List[float] = []
    first: Dict[str, bytes] = {}  # canonical request (or "report") -> stdout
    bodies: Dict[str, Item] = {}
    with Scratch() as cwd:
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            round_kinds = list(KINDS)
            order.shuffle(round_kinds)
            for kind in round_kinds:
                if kind == "report":
                    key, argv = "report", REPORT_ARGV
                else:
                    item = next(streams[kind])
                    key, argv = item.request.key, item.argv
                    bodies.setdefault(key, item)
                proc = run_process(argv, cwd)
                walls[kind].append(proc.wall_s)
                cpus.append(proc.cpu_s)
                rss.append(proc.maxrss_mb)
                ok = proc.returncode == 0 and not proc.timed_out and parses(proc.stdout)
                if ok and key not in first:
                    first[key] = proc.stdout
                    record.output(f"cli/{kind}/{len(first)}", proc.stdout)
                # A repeat re-spells an earlier request: its bytes must match.
                record.check(ok and proc.stdout == first[key],
                             f"{' '.join(argv[1:])} exited {proc.returncode}, printed invalid "
                             "JSON or printed another plan than an earlier spelling")
        elapsed = time.perf_counter() - start

        # Check phase (untimed): the service must return the same plans.
        server = spawn_server(cwd)
        try:
            client = Client(server.port)
            for key, item in bodies.items():
                if key not in first:
                    continue
                status, data = client.request("POST", item.path, item.body_bytes())
                same = status == 200 and plan_text(data) == first[key].decode().rstrip("\n")
                record.check(same, f"service plan differs from CLI for {' '.join(item.argv[1:])}")
            client.close()
        finally:
            stop_server(server)

    count = sum(len(v) for v in walls.values())
    medians = {kind: p50(v) for kind, v in walls.items() if v}
    for kind in KINDS:
        if kind in medians:
            record.figure(f"cli_{kind}_s", medians[kind], "s", len(walls[kind]))
    all_walls = [w for v in walls.values() for w in v]
    record.metric("p50_ms", 1000 * sum(medians.values()) / len(medians), "ms", count)
    # Too few processes for a percentile above the median to have ten
    # samples beyond it: the tail is the slowest process.
    record.metric("tail_ms", 1000 * max(all_walls), "ms", count)
    record.metric("throughput_per_s", count / elapsed, "1/s", count)
    record.metric("peak_rss_mb", max(rss), "MB", count)
    record.figure("error_rate", record.failed / max(1, record.attempted), "ratio", record.attempted)
    record.figure("cli_cpu_s", median(cpus), "s", len(cpus))
    for kind, s in stats.items():
        record.notes[f"{kind} requests"] = s.to_dict()
    return record
