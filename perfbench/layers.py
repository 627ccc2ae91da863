"""The traced run (``--trace 1``): per-layer numbers behind the end-to-end ones.

The probe calls each layer's public entry point from here, inside spans
of its own tracer, and measures what the untraced workloads cannot
separate. It runs every layer on every traced run, from inputs drawn
from the seed, so each traced run reports the same per-layer metrics:

=====================  ==================================================
layer                  metrics (the end-to-end figure each should move)
=====================  ==================================================
process start/import   ``import.*_s``, ``import.scipy_share`` (cli_*, serve setup_s)
plan CLIs              ``cli.parse_ms``, ``cli.cpu_s`` (cli_*)
cluster planner        ``planner.enumerate_ms``, ``planner.cells``,
                       ``planner.plan_warm_ms`` (cli_cluster_s, req_p50_ms)
scenarios + simulator  ``sim.sweep_ms``, ``sim.simulations``, ``sim.step_ms``,
                       ``cache.hit_ratio`` (cli_*, req_p99_ms)
parallelism            ``strategy.ms`` (cli_cluster_s)
spot risk              ``risk.ms``, ``risk.analytic_calls``, ``risk.segments``
                       (cli_spot_s, req_p99_ms)
serialization          ``serialize.ms``, ``serialize.bytes`` (req_p50_ms, cli_*)
service + HTTP         ``service.inproc_p50_ms``, ``http.overhead_p50_ms``,
                       ``service.normalize_ms``, ``service.coalesced_ratio``,
                       ``service.simulations``, ``service.risk_misses``
                       (req_p50_ms, req_per_s)
experiments + data     ``experiment.<id>_ms`` (six largest),
                       ``datasets.build_ms`` (cli_report_s; finetune setup_s)
training               ``train.*_ms``, ``nn.*``, ``quant.dequant_ms``,
                       ``tensor.*_per_step``, ``eval.forward_ms``
                       (*_tokens_per_s, eval_queries_per_s)
harness                ``trace.overhead_ratio``
=====================  ==================================================

Exact counts (``sim.simulations``, ``planner.cells``, ``risk.segments``,
``tensor.apply_calls_per_step``, ``service.simulations``,
``service.risk_misses``) are measured twice from fresh state and must
agree; they are also kept in ``.perfbench/counts-<source digest>-seed<N>.json``
and must agree with every earlier traced run of the same seed and program.

``trace.overhead_ratio`` compares training steps with the layer wrappers
installed against steps without them: the wrappers on ``Function.apply``
and ``Tensor.__init__`` are the only tracing here that sits on a hot
path; the other spans wrap calls that take milliseconds.

Everything is written as schema-v1 JSONL (harness spans, one gauge per
metric, a manifest) to ``.perfbench/trace-<workload>-seed<N>.jsonl``,
validated with ``repro.telemetry.schema.validate_file``, so
``python -m repro.telemetry.analyze`` reads it.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, List, Tuple

import cold_cli
import finetune_tiny
import serve_mixed
from common import WORK, RunRecord, Scratch, p50, run_process, source_digest
from plangen import StreamStats
from server import Client, spawn_server, stop_server

IMPORT_TARGETS = {
    "cluster_plan": "repro.cluster.plan",
    "spot_plan": "repro.spot.plan",
    "report": "repro.experiments.report",
    "serve": "repro.service.serve",
}
# The six largest experiments of the report, fixed so every run names the same metrics.
EXPERIMENTS = ("table2", "spot", "fig15", "table4", "fig14", "fig13")
TRAINING_EXPERIMENTS = ("fig3", "fig11")
PLAN_REQUESTS = 3  # distinct cluster and spot requests planned in process
SERVICE_REQUESTS = 300
TRAIN_STEPS = 6  # per model, per repetition
EXACT_COUNTS = ("sim.simulations", "planner.cells", "risk.segments",
                "tensor.apply_calls_per_step", "service.simulations", "service.risk_misses")


class Probe:
    """Spans, per-layer values and checks of one traced run."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.telemetry.tracer import Tracer

        self.seed = seed
        self.tracer = Tracer(enabled=True)
        self.record = RunRecord(workload, seed)
        self.cache_stats = None  # the in-process service's, for the manifest

    def set(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.record.metric(name, value, unit, samples)

    def exact(self, name: str, values: List[float], unit: str = "count") -> None:
        """An exact count measured once per repetition: all must agree."""
        self.record.check(len(set(values)) == 1, f"{name} differs between repetitions: {values}")
        self.set(name, values[0], unit, len(values))


@contextmanager
def patched(owner, name: str, make: Callable):
    """Replace ``owner.name`` with ``make(original)`` for the block."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Process start and import; the plan CLIs
# ---------------------------------------------------------------------------

def import_times(stderr: bytes) -> List[Tuple[int, int, int, str]]:
    """``-X importtime`` lines as (self us, cumulative us, depth, module)."""
    rows = []
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].lstrip()
        rows.append((self_us, cumulative_us, (len(parts[2]) - len(name) - 1) // 2, name))
    return rows


def probe_imports(probe: Probe, cwd) -> None:
    for label, module in IMPORT_TARGETS.items():
        with probe.tracer.span(f"import.{label}", module=module):
            proc = run_process(["-c", f"import {module}"], cwd)
        probe.record.check(proc.returncode == 0, f"import {module} failed")
        probe.set(f"import.{label}_s", proc.wall_s, "s")
    with probe.tracer.span("import.importtime"):
        proc = run_process(["-X", "importtime", "-c", f"import {IMPORT_TARGETS['cluster_plan']}"], cwd)
    rows = import_times(proc.stderr)
    total = sum(row[0] for row in rows)
    scipy = sum(row[0] for row in rows if row[3].startswith("scipy"))
    probe.record.check(total > 0, "-X importtime printed nothing")
    probe.set("import.scipy_share", scipy / total if total else 0.0, "ratio")


def probe_cli(probe: Probe, cwd, items) -> None:
    """Argument parsing in process; child CPU time of traced CLI runs."""
    from repro.cluster import plan as cluster_cli
    from repro.spot import plan as spot_cli

    parse_s = []
    for item in items:
        cli = spot_cli if item.request.kind == "spot" else cluster_cli
        with probe.tracer.span("cli.parse", kind=item.request.kind):
            start = time.perf_counter()
            args = cli.build_parser().parse_args(item.argv[2:])
            cli.resolve_model_key(args.model)
            for gpu in args.gpu or ():
                cli.resolve_gpu_name(gpu)
            parse_s.append(time.perf_counter() - start)
    probe.set("cli.parse_ms", 1000 * median(parse_s), "ms", len(parse_s))

    cpus = []
    cluster = next(item for item in items if item.request.kind == "cluster")
    for argv in ([*cluster.argv, "--telemetry-out", "cli.jsonl"],
                 [*cold_cli.REPORT_ARGV, "--telemetry-out", "cli.jsonl"]):
        with probe.tracer.span("cli.process", command=argv[1]):
            proc = run_process(["-X", "importtime", *argv], cwd)
        ok = proc.returncode == 0 and cold_cli.telemetry_simulations(cwd / "cli.jsonl") > 0
        probe.record.check(ok, f"{argv[1]} exited {proc.returncode} or reported zero "
                               "simulations (a cold run must simulate)")
        cpus.append(proc.cpu_s)
        imports_s = sum(row[1] for row in import_times(proc.stderr) if row[2] == 0) / 1e6
        probe.record.notes[f"import share of a cold {argv[1]}"] = f"{imports_s / proc.wall_s:.2f}"
    probe.set("cli.cpu_s", median(cpus), "s", len(cpus))


# ---------------------------------------------------------------------------
# Planning layers, in process
# ---------------------------------------------------------------------------

def _planner_inputs(item):
    """(planner kwargs, sweep kwargs, target kwargs) for one request,
    resolved the way the service resolves a body."""
    from repro.cluster.plan import _parse_densities
    from repro.service.app import normalize_cluster_request, normalize_spot_request

    normalize = normalize_spot_request if item.request.kind == "spot" else normalize_cluster_request
    request = normalize(item.body)
    planner = dict(dataset=request["dataset"], epochs=request["epochs"],
                   num_queries=request["num_queries"], seq_len=request["seq_len"])
    sweep = dict(
        gpus=request["gpu"], providers=request["provider"],
        num_gpus=tuple(request["num_gpus"]), interconnects=tuple(request["interconnect"]),
        densities=_parse_densities(request["density"]),
        batch_sizes=tuple(request["batch_size"]) if request["batch_size"] else None,
        parallelism=request["parallelism"], max_tp=request["max_tp"],
        grad_accums=tuple(request["grad_accum"]),
    )
    target = dict(deadline_hours=request["deadline_hours"], budget_dollars=request["budget_dollars"])
    return request, planner, sweep, target


def probe_planning(probe: Probe, items) -> None:
    """Enumerate, cold sweep, strategy, warm plan and serialization for
    a few cluster requests, twice from fresh caches."""
    from repro.cluster.planner import ClusterPlanner
    from repro.gpu.multigpu import estimate_from_trace
    from repro.scenarios import SimulationCache, SweepRunner
    from repro.serialization import dumps

    reps = []
    for rep in range(2):
        totals = dict(enumerate=0.0, sweep=0.0, strategy=0.0, warm=0.0, serialize=0.0,
                      cells=0, simulations=0, bytes=0)
        for item in items:
            request, kwargs, sweep, target = _planner_inputs(item)
            cache = SimulationCache()
            planner = ClusterPlanner(request["model"], cache=cache, **kwargs)
            with probe.tracer.span("planner.enumerate", rep=rep):
                (grid, _), seconds = timed(planner.scenarios, **sweep)
            totals["enumerate"] += seconds
            totals["cells"] += len(grid)
            with probe.tracer.span("sim.sweep", rep=rep, cells=len(grid)):
                points, seconds = timed(SweepRunner(cache=cache).run, grid)
            totals["sweep"] += seconds
            totals["simulations"] += cache.stats().simulations
            with probe.tracer.span("strategy", rep=rep):
                start = time.perf_counter()
                for point in points:
                    s = point.scenario
                    estimate_from_trace(s.config, point.trace, s.num_gpus,
                                        s.interconnect_spec, strategy=s.strategy_spec)
                totals["strategy"] += time.perf_counter() - start
            with probe.tracer.span("planner.plan_warm", rep=rep):
                plan, seconds = timed(planner.plan, **sweep, **target)
            totals["warm"] += seconds
            with probe.tracer.span("serialize", rep=rep):
                text, seconds = timed(dumps, plan.to_payload(), indent=2)
            totals["serialize"] += seconds
            totals["bytes"] += len(text.encode("utf-8"))
        reps.append(totals)
    n = len(items)

    def per_request_ms(key):
        return 1000 * min(r[key] for r in reps) / n

    probe.set("planner.enumerate_ms", per_request_ms("enumerate"), "ms", 2 * n)
    probe.exact("planner.cells", [r["cells"] for r in reps])
    probe.set("planner.plan_warm_ms", per_request_ms("warm"), "ms", 2 * n)
    probe.set("sim.sweep_ms", per_request_ms("sweep"), "ms", 2 * n)
    probe.exact("sim.simulations", [r["simulations"] for r in reps])
    simulations = max(1, reps[0]["simulations"])
    probe.set("sim.step_ms", 1000 * min(r["sweep"] for r in reps) / simulations, "ms", simulations)
    probe.set("strategy.ms", per_request_ms("strategy"), "ms", 2 * n)
    probe.set("serialize.ms", per_request_ms("serialize"), "ms", 2 * n)
    probe.set("serialize.bytes", reps[0]["bytes"] / n, "bytes", n)


def probe_risk(probe: Probe, items) -> None:
    """``plan_spot`` minus ``plan`` on warm traces, with the analytic
    engine's work counted, twice from fresh caches."""
    from repro.scenarios import SimulationCache
    from repro.spot import planner as spot_planner
    from repro.spot import risk as risk_module

    counts = {"analytic": 0, "segments": 0}

    def count_init(original):
        def init(self, *args, **kwargs):
            counts["analytic"] += 1
            return original(self, *args, **kwargs)
        return init

    def count_segments(original):
        def segment_lengths(*args, **kwargs):
            result = original(*args, **kwargs)
            counts["segments"] += len(result)
            return result
        return segment_lengths

    reps = []
    for rep in range(2):
        risk_s = 0.0
        analytic = segments = 0
        for item in items:
            request, kwargs, sweep, target = _planner_inputs(item)
            checkpoint = request["checkpoint_minutes"]
            planner = spot_planner.RiskAdjustedPlanner(
                request["model"], cache=SimulationCache(), mtbp_hours=request["mtbp_hours"],
                checkpoint_minutes=tuple(checkpoint) if checkpoint else None,
                trials=request["trials"], seed=request["seed"], risk_mode=request["risk_mode"],
                **kwargs,
            )
            planner.plan(**sweep, **target)  # warms the traces
            with probe.tracer.span("risk.plan_warm", rep=rep):
                _, plan_s = timed(planner.plan, **sweep, **target)
            counts.update(analytic=0, segments=0)
            with patched(risk_module.AnalyticMakespanDistribution, "__init__", count_init), \
                    patched(risk_module, "segment_lengths", count_segments), \
                    patched(spot_planner, "segment_lengths", count_segments):
                with probe.tracer.span("risk.plan_spot", rep=rep):
                    _, spot_s = timed(planner.plan_spot, spot=request["spot"],
                                      confidence=request["confidence"], **sweep, **target)
            risk_s += spot_s - plan_s
            analytic += counts["analytic"]
            segments += counts["segments"]
        reps.append((risk_s, analytic, segments))
    probe.set("risk.ms", 1000 * min(r[0] for r in reps) / len(items), "ms", 2 * len(items))
    probe.exact("risk.analytic_calls", [r[1] for r in reps])
    probe.exact("risk.segments", [r[2] for r in reps])


# ---------------------------------------------------------------------------
# Service: in process, then over HTTP, on the same stream
# ---------------------------------------------------------------------------

def probe_service(probe: Probe, cwd) -> None:
    from repro.service.app import (
        PlanningService,
        RequestError,
        normalize_cluster_request,
        normalize_spot_request,
    )

    clients = serve_mixed.client_count()
    items = list(serve_mixed.make_stream(probe.seed, clients, StreamStats(), limit=SERVICE_REQUESTS))
    service = PlanningService()
    inproc, normalize = [], []
    with probe.tracer.span("service.inproc", requests=len(items)):
        for item in items:
            kind = item.request.kind
            norm = normalize_spot_request if kind == "spot" else normalize_cluster_request
            start = time.perf_counter()
            try:
                norm(item.body)
            except RequestError:
                pass
            normalize.append(time.perf_counter() - start)
            start = time.perf_counter()
            try:
                service.plan(kind, item.body)
            except RequestError:
                pass
            inproc.append(time.perf_counter() - start)
    inproc_stats = service.stats_payload()["cache"]
    probe.cache_stats = service.cache.stats()
    probe.set("service.inproc_p50_ms", 1000 * p50(inproc), "ms", len(inproc))
    probe.set("service.normalize_ms", 1000 * median(normalize), "ms", len(normalize))
    probe.set("cache.hit_ratio", service.cache.stats().hit_rate, "ratio", len(items))

    server = spawn_server(cwd)
    try:
        loop = serve_mixed.ClosedLoop(server.port, iter(items), clients)
        with probe.tracer.span("service.http", requests=len(items), clients=clients):
            loop.run()
        stats = Client(server.port).get_json("/stats")
    finally:
        stop_server(server)
    statuses = serve_mixed.check_responses(probe.record, loop, "trace-serve")
    serve_mixed.check_stats(probe.record, loop, statuses, stats)
    client_p50 = 1000 * p50(loop.latencies())
    probe.set("http.client_p50_ms", client_p50, "ms", len(items))
    overhead = client_p50 - 1000 * p50(inproc)
    probe.set("http.overhead_p50_ms", overhead, "ms", len(items))
    probe.record.notes["HTTP share of the client p50"] = f"{overhead / client_p50:.2f}"
    requests = stats["requests"]["total"]
    probe.set("service.coalesced_ratio", stats["requests"]["coalesced"] / max(1, requests), "ratio", requests)
    # Sequential in process and concurrent over HTTP must do the same work.
    probe.exact("service.simulations", [inproc_stats["simulations"], stats["cache"]["simulations"]])
    probe.exact("service.risk_misses", [inproc_stats["risk_misses"], stats["cache"]["risk_misses"]])


# ---------------------------------------------------------------------------
# Experiments and dataset construction
# ---------------------------------------------------------------------------

def probe_experiments(probe: Probe) -> None:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.scenarios import reset_default_cache

    reset_default_cache()
    for key, module in ALL_EXPERIMENTS.items():
        if key in TRAINING_EXPERIMENTS:
            continue
        accepted = inspect.signature(module.run).parameters
        with probe.tracer.span(f"experiment.{key}"):
            _, seconds = timed(module.run, **({"scale": "smoke"} if "scale" in accepted else {}))
        if key in EXPERIMENTS:
            probe.set(f"experiment.{key}_ms", 1000 * seconds, "ms")
    builds = []
    for _ in range(3):
        with probe.tracer.span("datasets.build"):
            builds.append(timed(finetune_tiny.build_suite, probe.seed)[1])
    probe.set("datasets.build_ms", 1000 * median(builds), "ms", len(builds))


# ---------------------------------------------------------------------------
# Training stack
# ---------------------------------------------------------------------------

class LayerClock:
    """Wraps the training layers' entry points: counts ``Function.apply``
    and ``Tensor`` constructions, times MoE / attention / Mamba forwards
    and NF4 dequantization, split by the step phase they ran in."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.phase = "idle"
        self.counts = {"apply": 0, "tensors": 0}
        self.seconds: Dict[str, Dict[str, float]] = {}

    def reset(self) -> None:
        self.counts.update(apply=0, tensors=0)  # the wrappers hold this dict
        self.seconds.clear()

    def on_phase(self, phase: str) -> None:
        self.phase = phase

    def _timer(self, label: str, span: bool):
        clock = self

        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                if span:
                    with clock.probe.tracer.span(f"nn.{label}"):
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
                bucket = clock.seconds.setdefault(clock.phase, {})
                bucket[label] = bucket.get(label, 0.0) + time.perf_counter() - start
                return result
            return wrapper
        return make

    def _counter(self, label: str):
        counts = self.counts

        def make(original):
            if isinstance(original, classmethod):
                function = original.__func__

                def apply(cls, *args, **kwargs):
                    counts[label] += 1
                    return function(cls, *args, **kwargs)
                return classmethod(apply)

            def wrapper(*args, **kwargs):
                counts[label] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    @contextmanager
    def installed(self):
        from repro import nn
        from repro.quant.nf4 import QuantizedTensor
        from repro.tensor.core import Function, Tensor

        with patched(Function, "apply", self._counter("apply")), \
                patched(Tensor, "__init__", self._counter("tensors")), \
                patched(nn.MoELayer, "forward", self._timer("moe", span=True)), \
                patched(nn.CausalSelfAttention, "forward", self._timer("attention", span=True)), \
                patched(nn.MambaMixer, "forward", self._timer("mamba", span=True)), \
                patched(QuantizedTensor, "dequantize", self._timer("dequant", span=False)):
            yield self

    def spent(self, phase: str, label: str) -> float:
        return self.seconds.get(phase, {}).get(label, 0.0)


def probe_training(probe: Probe) -> None:
    clock = LayerClock(probe)
    untraced = {"mixtral": [], "blackmamba": []}
    traced: Dict[str, List[Dict[str, float]]] = {"mixtral": [], "blackmamba": []}
    counts: List[tuple] = []
    phases: Dict[str, List[float]] = {"data": [], "forward": [], "backward": [], "optimizer": []}
    steps_in_phase_order: List[float] = []
    eval_s = []
    for rep in range(2):
        suite, trainees = finetune_tiny.setup(probe.seed)
        for _ in range(TRAIN_STEPS):  # untraced steps: the phase split and the overhead base
            for trainee in trainees:
                trainee.step()
        for trainee in trainees:
            untraced[trainee.name] += trainee.step_s
            steps_in_phase_order += trainee.step_s
            for name, values in trainee.phases.items():
                phases[name] += values
        rep_counts = []
        with clock.installed():
            for _ in range(TRAIN_STEPS):
                for trainee in trainees:
                    clock.reset()
                    with probe.tracer.span("train.step", model=trainee.name, rep=rep):
                        trainee.step(clock.on_phase)
                    clock.phase = "idle"
                    forward = trainee.phases["forward"][-1]
                    traced[trainee.name].append({
                        "step": trainee.step_s[-1],
                        "forward": forward,
                        "moe": clock.spent("forward", "moe"),
                        "attention": clock.spent("forward", "attention"),
                        "mamba": clock.spent("forward", "mamba"),
                        "dequant": sum(clock.spent(p, "dequant") for p in ("forward", "backward")),
                    })
                    rep_counts.append((clock.counts["apply"], clock.counts["tensors"]))
        counts.append(rep_counts)
        for trainee in trainees:
            with probe.tracer.span("eval", model=trainee.name, rep=rep):
                eval_s.append(finetune_tiny.evaluate(trainee, suite))

    steps = [s for values in untraced.values() for s in values]
    for name, values in phases.items():
        probe.set(f"train.{name}_ms", 1000 * median(values), "ms", len(values))
    probe.set("train.step_ms", 1000 * median(steps), "ms", len(steps))
    covered = [1 - data / step for data, step in zip(phases["data"], steps_in_phase_order)]
    probe.record.notes["forward+backward+optimizer share of a step"] = f"{median(covered):.3f}"
    mixtral, mamba = traced["mixtral"], traced["blackmamba"]

    def med(rows, key):
        return 1000 * median([row[key] for row in rows])

    probe.set("nn.moe_forward_ms", med(mixtral, "moe"), "ms", len(mixtral))
    probe.set("nn.moe_share", median([r["moe"] / r["forward"] for r in mixtral]), "ratio", len(mixtral))
    probe.set("nn.attention_forward_ms", med(mixtral, "attention"), "ms", len(mixtral))
    probe.set("nn.mamba_forward_ms", med(mamba, "mamba"), "ms", len(mamba))
    probe.set("quant.dequant_ms", med(mixtral, "dequant"), "ms", len(mixtral))
    per_step = [sum(c[0] for c in rep) / len(rep) for rep in counts]
    probe.exact("tensor.apply_calls_per_step", per_step, "calls")
    tensors = [sum(c[1] for c in rep) / len(rep) for rep in counts]
    probe.exact("tensor.new_tensors_per_step", tensors, "tensors")
    probe.set("eval.forward_ms", 1000 * median(eval_s) / finetune_tiny.EVAL_ITEMS, "ms", len(eval_s))
    traced_steps = [r["step"] for rows in traced.values() for r in rows]
    probe.set("trace.overhead_ratio", median(traced_steps) / median(steps), "ratio", len(traced_steps))


# ---------------------------------------------------------------------------

def check_counts_against_earlier(probe: Probe) -> None:
    """Exact counts must match every earlier traced run of this seed."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"counts-{source_digest()[:16]}-seed{probe.seed}.json"
    mine = {name: probe.record.metrics[name].value for name in EXACT_COUNTS}
    if path.exists():
        earlier = json.loads(path.read_text())
        probe.record.check(earlier == mine, f"exact counts differ from an earlier run: {earlier} vs {mine}")
    else:
        path.write_text(json.dumps(mine, indent=1, sort_keys=True) + "\n")


def write_jsonl(probe: Probe) -> None:
    from repro.telemetry.export import write_events
    from repro.telemetry.manifest import build_manifest
    from repro.telemetry.schema import validate_file

    snapshot = {name: {"type": "gauge", "value": m.value} for name, m in probe.record.metrics.items()}
    manifest = build_manifest("perfbench.layers", {"workload": probe.record.workload, "seed": probe.seed},
                              probe.tracer, probe.cache_stats)
    path = WORK / f"trace-{probe.record.workload}-seed{probe.seed}.jsonl"
    write_events(path, probe.tracer, snapshot, manifest)
    validate_file(path)
    probe.record.notes["trace"] = str(path.relative_to(WORK.parent))


def run(workload: str, seed: int, seconds: float) -> RunRecord:
    """The per-layer probe; ``seconds`` does not apply, the work is fixed."""
    probe = Probe(workload, seed)
    new = [i for i in serve_mixed.make_stream(seed, 1, StreamStats(), limit=400) if i.new]
    cluster_items = [i for i in new if i.request.kind == "cluster"][:PLAN_REQUESTS]
    spot_items = [i for i in new if i.request.kind == "spot"][:PLAN_REQUESTS]
    with probe.tracer.span("perfbench.layers", workload=workload, seed=seed):
        with Scratch() as cwd:
            with probe.tracer.span("layer.import"):
                probe_imports(probe, cwd)
            with probe.tracer.span("layer.cli"):
                probe_cli(probe, cwd, cluster_items + spot_items)
            with probe.tracer.span("layer.planning"):
                probe_planning(probe, cluster_items)
            with probe.tracer.span("layer.risk"):
                probe_risk(probe, spot_items)
            with probe.tracer.span("layer.service"):
                probe_service(probe, cwd)
        with probe.tracer.span("layer.experiments"):
            probe_experiments(probe)
        with probe.tracer.span("layer.training"):
            probe_training(probe)
    check_counts_against_earlier(probe)
    write_jsonl(probe)
    return probe.record
