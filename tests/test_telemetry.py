"""Tests for the telemetry subsystem: tracer spans and their
determinism contract, the metrics registry, the JSONL schema
validator, run manifests, and the CLIs' --telemetry/--telemetry-out
wiring (including byte-identity of untraced output)."""

import json
import math

import pytest

from repro.gpu import A40
from repro.models import BLACKMAMBA_2_8B
from repro.scenarios import (
    Scenario,
    ScenarioGrid,
    SimulationCache,
    SweepRunner,
    reset_default_cache,
)
from repro.spot.plan import main as spot_plan_main
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SCHEMA_VERSION,
    Tracer,
    build_manifest,
    default_tracer,
    grid_digest,
    merge_snapshots,
    metric_events,
    reset_default_tracer,
    resolve_tracer,
    run_events,
    validate_event,
    validate_file,
    write_events,
)

GRID = ScenarioGrid.product(
    models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
    dense=(False,), batch_sizes=(1, 2, 3, 4),
)


@pytest.fixture
def fresh_globals():
    """A clean process-global tracer and cache, restored (disabled)
    afterwards so telemetry state never leaks into other tests."""
    tracer = reset_default_tracer()
    cache = reset_default_cache()
    yield tracer, cache
    reset_default_tracer()
    reset_default_cache()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_record_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans()
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.finished and inner.finished
        assert inner.duration_seconds <= outer.duration_seconds

    def test_attributes_seed_and_mutate(self):
        tracer = Tracer()
        with tracer.span("work", cells=3) as sp:
            sp.attributes["points"] = 5
        (span,) = tracer.spans()
        assert span.attributes == {"cells": 3, "points": 5}

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as sp:
            sp.attributes["lost"] = True  # lands in a throwaway dict
        assert len(tracer) == 0
        assert tracer.tree_shape() == ()

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.finished
        assert span.attributes["error"] == "ValueError"

    def test_tree_shape_strips_timings(self):
        tracer = Tracer()
        with tracer.span("plan"):
            with tracer.span("enumerate"):
                pass
            with tracer.span("simulate"):
                pass
        assert tracer.tree_shape() == (
            ("plan", (("enumerate", ()), ("simulate", ()))),
        )

    def test_phase_seconds_sums_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        phases = tracer.phase_seconds()
        assert set(phases) == {"phase"}
        assert phases["phase"] >= 0.0

    def test_render_tree_mentions_every_span(self):
        tracer = Tracer()
        with tracer.span("a", answer=42):
            with tracer.span("b"):
                pass
        rendered = tracer.render_tree()
        assert "a" in rendered and "b" in rendered and "answer=42" in rendered

    def test_reset_drops_spans_but_keeps_enabled(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert len(tracer) == 0 and tracer.enabled

    def test_resolve_tracer_defaults_to_global(self):
        assert resolve_tracer(None) is default_tracer()
        mine = Tracer()
        assert resolve_tracer(mine) is mine

    def test_default_tracer_starts_disabled(self, fresh_globals):
        tracer, _ = fresh_globals
        assert tracer.enabled is False
        with tracer.span("invisible"):
            pass
        assert len(tracer) == 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_only_goes_up(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_summarizes(self):
        hist = Histogram("h")
        for value in (2.0, 0.5, 1.0):
            hist.observe(value)
        snap = hist.snapshot()
        buckets = snap.pop("buckets")
        assert snap == {"type": "histogram", "count": 3, "sum": 3.5,
                        "min": 0.5, "max": 2.0}
        # The bounded-memory buckets account for every observation.
        assert sum(count for _, count in buckets) == 3
        assert hist.mean == pytest.approx(3.5 / 3)

    def test_empty_histogram_has_null_extremes(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0 and snap["min"] is None and snap["max"] is None

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_registry_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        assert list(registry.snapshot()) == ["a.first", "z.last"]

    def test_registry_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        handle = registry.counter("kept")
        handle.inc(7)
        registry.reset()
        assert handle.value == 0
        assert registry.counter("kept") is handle

    def test_merge_snapshots_sorts_and_combines(self):
        left = MetricsRegistry()
        left.counter("cache.hits").inc()
        right = MetricsRegistry()
        right.counter("store.writes").inc(2)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert list(merged) == ["cache.hits", "store.writes"]
        assert merged["store.writes"]["value"] == 2


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
class TestSchema:
    def span_event(self, **overrides):
        event = {"type": "span", "name": "s", "id": 1, "parent": None,
                 "start_s": 0.0, "duration_s": 0.1, "attrs": {}}
        event.update(overrides)
        return event

    def test_valid_span_metric_manifest(self):
        assert validate_event(self.span_event()) == "span"
        assert validate_event({"type": "metric", "name": "m",
                               "kind": "counter", "value": 3}) == "metric"
        assert validate_event({"type": "metric", "name": "h", "kind": "histogram",
                               "count": 0, "sum": 0.0, "min": None,
                               "max": None}) == "metric"

    @pytest.mark.parametrize("mutation", [
        {"type": "bogus"},
        {"id": 0},
        {"duration_s": -1.0},
        {"start_s": float("inf")},
        {"attrs": "not-a-dict"},
    ])
    def test_invalid_spans_rejected(self, mutation):
        with pytest.raises(ValueError):
            validate_event(self.span_event(**mutation))

    def test_nonempty_histogram_needs_extremes(self):
        with pytest.raises(ValueError):
            validate_event({"type": "metric", "name": "h", "kind": "histogram",
                            "count": 1, "sum": 1.0, "min": None, "max": None})
        with pytest.raises(ValueError):  # and empty ones must not have them
            validate_event({"type": "metric", "name": "h", "kind": "histogram",
                            "count": 0, "sum": 0.0, "min": 0.5, "max": 0.5})

    def test_manifest_schema_version_enforced(self):
        tracer = Tracer()
        cache = SimulationCache()
        manifest = build_manifest("cmd", {}, tracer, cache.stats())
        assert validate_event(manifest) == "manifest"
        manifest["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            validate_event(manifest)

    def test_validate_file_reports_line_numbers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(self.span_event()) + "\n" + json.dumps({"type": "bogus"}) + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            validate_file(path)


# ---------------------------------------------------------------------------
# Manifest + export
# ---------------------------------------------------------------------------
class TestManifest:
    def test_grid_digest_tracks_grid_identity(self):
        other = ScenarioGrid.product(
            models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
            dense=(False,), batch_sizes=(1, 2),
        )
        assert grid_digest(GRID) == grid_digest(list(GRID))
        assert grid_digest(GRID) != grid_digest(other)
        assert grid_digest([]) is None

    def test_manifest_cache_block_matches_stats_exactly(self):
        cache = SimulationCache()
        runner = SweepRunner(cache=cache)
        runner.run(GRID)
        runner.run(GRID)  # warm pass: hits
        stats = cache.stats()
        manifest = build_manifest("cmd", {"seed": 1}, Tracer(), stats)
        assert manifest["cache"] == {
            "hits": stats.hits,
            "misses": stats.misses, "simulations": stats.simulations,
            "risk_hits": stats.risk_hits, "risk_misses": stats.risk_misses,
            "evictions": stats.evictions, "entries": stats.entries,
        }
        assert manifest["cache"]["hits"] == len(GRID)

    def test_write_events_roundtrips_through_validator(self, tmp_path):
        tracer = Tracer()
        cache = SimulationCache()
        with tracer.span("work"):
            cache.simulate(next(iter(GRID)))
        manifest = build_manifest("cmd", {"top": 10}, tracer, cache.stats())
        path = tmp_path / "sub" / "events.jsonl"  # parent dir is created
        lines = write_events(path, tracer, cache.metrics.snapshot(), manifest)
        counts = validate_file(path)
        assert counts["manifest"] == 1
        assert counts["span"] == 1
        assert sum(counts.values()) == lines
        # The file holds exactly the list a run store ingests.
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == run_events(tracer, cache.metrics.snapshot(), manifest)
        assert [e["type"] for e in written][0] == "span"
        assert written[-1] == manifest

    def test_crashed_write_events_leaves_no_truncated_file(self, tmp_path):
        """Atomic-write contract: an export that dies mid-write must not
        leave a partial JSONL at the target path (a fresh path stays
        absent; an existing complete export stays intact), and must not
        leak its temp file."""
        tracer = Tracer()
        with tracer.span("work", payload={1, 2}):  # a set is not JSON
            pass
        path = tmp_path / "events.jsonl"
        with pytest.raises(TypeError):
            write_events(path, tracer, {}, None)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp file

        # Overwrite case: a previous complete export survives the crash.
        good = Tracer()
        with good.span("work"):
            pass
        write_events(path, good, {}, None)
        before = path.read_text(encoding="utf-8")
        with pytest.raises(TypeError):
            write_events(path, tracer, {}, None)
        assert path.read_text(encoding="utf-8") == before
        assert validate_file(path)["span"] == 1

    def test_metric_events_cover_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        events = metric_events(registry.snapshot())
        assert {e["kind"] for e in events} == {"counter", "histogram"}
        for event in events:
            validate_event(event)


# ---------------------------------------------------------------------------
# Determinism: the span tree and metric totals repeat from run to run
# ---------------------------------------------------------------------------
class TestDeterminism:
    def collect(self):
        tracer = Tracer()
        cache = SimulationCache()
        points = SweepRunner(cache=cache, tracer=tracer).run(GRID)
        histograms = {
            name: snap["count"]
            for name, snap in cache.metrics.snapshot().items()
            if snap["type"] == "histogram"
        }
        return points, tracer.tree_shape(), cache.stats(), histograms

    def test_repeated_runs_match_shape_and_totals(self):
        first_points, first_shape, first_stats, first_hist = self.collect()
        again_points, again_shape, again_stats, again_hist = self.collect()
        assert again_shape == first_shape
        assert again_stats == first_stats
        assert again_hist == first_hist
        assert [p.trace.total_seconds for p in again_points] == [
            p.trace.total_seconds for p in first_points
        ]

    def warm_run_events(self):
        """A full event log for a *warm* traced sweep: the cache is
        pre-populated untraced, so every traced phase is pure
        bookkeeping — well under the compare gate's noise floor."""
        cache = SimulationCache()
        SweepRunner(cache=cache).run(GRID)
        tracer = Tracer(enabled=True)
        SweepRunner(cache=cache, tracer=tracer).run(GRID)
        manifest = build_manifest("sweep", {}, tracer,
                                  cache.stats(), grid=grid_digest(GRID))
        return run_events(tracer, cache.metrics.snapshot(), manifest)

    def test_compare_verdict_stable_across_warm_runs(self):
        """The regression gate must not flip between repeated warm runs:
        warm phases sit below the absolute noise floor, and the engine
        counters repeat by the determinism contract, so two runs compare
        'ok' in both directions with zero counter deltas."""
        from repro.telemetry.compare import compare_runs

        first = self.warm_run_events()
        again = self.warm_run_events()
        for baseline, candidate in ((first, again), (again, first)):
            result = compare_runs(baseline, candidate)
            assert result["verdict"] == "ok"
            assert result["regressions"] == []
            assert result["counters"] == []


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
SPOT_ARGS = ["--model", "blackmamba", "--gpu", "a40", "--provider", "cudo",
             "--num-gpus", "1,2", "--density", "sparse",
             "--interconnect", "pcie-gen4"]


class TestCLIs:
    def test_untraced_json_has_no_telemetry_key(self, capsys, fresh_globals):
        assert spot_plan_main(SPOT_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload

    def test_telemetry_flag_gates_the_json_block(self, capsys, tmp_path,
                                                 fresh_globals):
        assert spot_plan_main(SPOT_ARGS + ["--json"]) == 0
        untraced = json.loads(capsys.readouterr().out)
        reset_default_tracer()
        reset_default_cache()
        out = tmp_path / "events.jsonl"
        assert spot_plan_main(
            SPOT_ARGS + ["--json", "--telemetry", "--telemetry-out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        traced = json.loads(captured.out)
        block = traced.pop("telemetry")
        # Byte-identity modulo the flag-gated block: the plan itself is
        # untouched by tracing.
        assert traced == untraced
        # The stderr tree names the command and the phases.
        assert "repro.spot.plan" in captured.err
        assert "planner.enumerate" in captured.err
        # The JSONL log validates and carries spans + metrics + manifest.
        counts = validate_file(out)
        assert counts["manifest"] == 1
        assert counts["span"] >= 5
        assert counts["metric"] >= 6
        # The span tree covers every planner phase.
        names = {e["name"] for e in block["spans"]}
        assert {"planner.enumerate", "planner.simulate", "planner.price",
                "planner.risk", "planner.risk_pareto", "sweep.run"} <= names

    def test_manifest_cache_block_matches_live_stats(self, capsys, tmp_path,
                                                     fresh_globals):
        _, cache = fresh_globals
        out = tmp_path / "events.jsonl"
        assert spot_plan_main(SPOT_ARGS + ["--telemetry-out", str(out)]) == 0
        capsys.readouterr()
        manifest = [
            json.loads(line) for line in out.read_text().splitlines()
            if json.loads(line)["type"] == "manifest"
        ][0]
        stats = cache.stats()  # the CLI used the default cache
        assert manifest["cache"]["hits"] == stats.hits
        assert manifest["cache"]["misses"] == stats.misses
        assert manifest["cache"]["simulations"] == stats.simulations
        assert manifest["cache"]["entries"] == stats.entries
        assert manifest["command"] == "repro.spot.plan"
        assert manifest["grid_digest"] is not None
        assert manifest["args"]["model"] == "blackmamba"
        for phase in ("planner.plan_spot", "planner.simulate", "planner.risk"):
            assert manifest["phases"][phase] >= 0.0

    def test_report_cli_emits_validating_log(self, capsys, tmp_path,
                                             fresh_globals):
        from repro.experiments.report import main as report_main

        out = tmp_path / "report.jsonl"
        assert report_main(["--json", "--telemetry-out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        counts = validate_file(out)
        assert counts["manifest"] == 1
        manifest = payload["telemetry"]["manifest"]
        assert manifest["command"] == "repro.experiments.report"
        assert manifest["grid_digest"] is None  # no single swept grid
        span_names = {s["name"] for s in payload["telemetry"]["spans"]}
        assert "report.collect" in span_names
        assert any(name.startswith("experiment.") for name in span_names)


# ---------------------------------------------------------------------------
# Satellite regressions: SweepPoint guards and hit-rate semantics
# ---------------------------------------------------------------------------
class TestDegenerateTraces:
    def make_point(self, total_seconds):
        from repro.gpu.trace import StepTrace
        from repro.scenarios.runner import SweepPoint

        trace = StepTrace(
            gpu=A40, batch_size=1, seq_len=64, dense=False, timings=[],
            software_overhead_seconds=total_seconds,
        )
        return SweepPoint(index=0, scenario=next(iter(GRID)), trace=trace)

    def test_zero_time_trace_reports_no_throughput(self):
        point = self.make_point(0.0)
        assert point.queries_per_second == 0.0
        assert point.total_seconds == math.inf

    def test_nan_time_trace_reports_no_throughput(self):
        point = self.make_point(float("nan"))
        assert point.queries_per_second == 0.0
        assert point.total_seconds == math.inf

    def test_healthy_trace_unchanged(self):
        cache = SimulationCache()
        runner = SweepRunner(cache=cache)
        point = runner.run(GRID)[0]
        assert point.queries_per_second > 0.0
        assert point.total_seconds == point.trace.total_seconds
        assert point.queries_per_second == pytest.approx(
            point.trace.batch_size / point.trace.total_seconds
        )

    def test_cost_math_survives_degenerate_point(self):
        from repro.core.cost import wall_clock_hours

        point = self.make_point(0.0)
        assert wall_clock_hours(1000, point.queries_per_second) == math.inf


class TestHitRates:
    def test_hit_rate_is_hits_over_lookups(self):
        from repro.scenarios.cache import CacheStats

        stats = CacheStats(hits=6, misses=2, entries=8)
        assert stats.lookups == 8
        assert stats.hit_rate == pytest.approx(0.75)  # 6 / 8

    def test_zero_lookups_is_zero_not_nan(self):
        from repro.scenarios.cache import CacheStats

        stats = CacheStats(hits=0, misses=0, entries=0)
        assert stats.hit_rate == 0.0
