"""Tests for the telemetry consume side: histogram bucket quantiles,
SchemaError line/key reporting, version fallback, the RunStore, the
analyzer math (self-time, critical path, cache audit, percentiles),
and the compare CLI's noise-aware regression gate."""

import json

import pytest

from repro.scenarios import reset_default_cache
from repro.telemetry import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    RunStore,
    SCHEMA_VERSION,
    SchemaError,
    load_run,
    metric_events,
    quantile_from_buckets,
    reset_default_tracer,
    resolve_run_store,
    validate_event,
    validate_file,
    version_info,
    write_events,
)
from repro.telemetry.analyze import (
    analyze_run,
    build_span_forest,
    cache_audit,
    critical_path,
    latency_percentiles,
    self_time_table,
)
from repro.telemetry.analyze import main as analyze_main
from repro.telemetry.compare import (
    compare_runs,
    counter_deltas,
    phase_deltas,
)
from repro.telemetry.compare import main as compare_main
from repro.telemetry.metrics import BUCKET_STEP


# ---------------------------------------------------------------------------
# Event builders
# ---------------------------------------------------------------------------
def span(span_id, name, duration, parent=None, start=0.0):
    return {"type": "span", "name": name, "id": span_id, "parent": parent,
            "start_s": start, "duration_s": duration, "attrs": {}}


def counter(name, value):
    return {"type": "metric", "name": name, "kind": "counter", "value": value}


def manifest(command="cmd", phases=None, version="abc123", args=None,
             grid_digest=None):
    return {
        "type": "manifest", "schema": SCHEMA_VERSION, "version": version,
        "version_source": "git", "command": command,
        "args": dict(args or {}), "grid_digest": grid_digest,
        "cache": {"hits": 0, "misses": 0, "simulations": 0,
                  "risk_hits": 0, "risk_misses": 0, "entries": 0},
        "phases": dict(phases or {}),
    }


def write_run(path, events):
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    )
    return path


# ---------------------------------------------------------------------------
# Satellite 1: histogram buckets and quantile estimates
# ---------------------------------------------------------------------------
class TestHistogramBuckets:
    def test_bucket_counts_account_for_every_observation(self):
        hist = Histogram("h")
        values = [1e-8, 0.0003, 0.0003, 0.5, 2.0, 1e6]  # under + over flow
        for value in values:
            hist.observe(value)
        snap = hist.snapshot()
        assert sum(n for _, n in snap["buckets"]) == len(values)
        # The overflow observation landed in the null-bounded last slot.
        assert snap["buckets"][-1][0] is None
        # Bounds are strictly ascending (sparse, but ordered).
        bounds = [b for b, _ in snap["buckets"] if b is not None]
        assert bounds == sorted(bounds)

    def test_single_observation_quantiles_are_exact(self):
        hist = Histogram("h")
        hist.observe(0.00123)
        # min == max clamps the bucket interpolation to the observation.
        assert hist.quantile(0.0) == pytest.approx(0.00123)
        assert hist.quantile(0.5) == pytest.approx(0.00123)
        assert hist.quantile(1.0) == pytest.approx(0.00123)

    def test_quantiles_land_in_the_right_bucket(self):
        hist = Histogram("h")
        for _ in range(50):
            hist.observe(1.0)
        for _ in range(50):
            hist.observe(10.0)
        # Median at the top of the 1.0-bounded bucket, exactly.
        assert hist.quantile(0.5) == pytest.approx(1.0)
        # p95 interpolates inside the 10.0-bounded bucket.
        p95 = hist.quantile(0.95)
        assert 10.0 / BUCKET_STEP <= p95 <= 10.0

    def test_empty_and_bucketless_histograms_have_no_quantiles(self):
        assert Histogram("h").quantile(0.5) is None
        # Pre-bucket schema-v1 snapshots: count but no buckets field.
        assert quantile_from_buckets([], 3, 0.1, 2.0, 0.5) is None

    def test_quantile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            quantile_from_buckets([[1.0, 1]], 1, 1.0, 1.0, 1.5)

    def test_snapshot_validates_and_exports_through_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("cache.fetch.memory_seconds").observe(0.002)
        events = metric_events(registry.snapshot())
        histogram_events = [e for e in events if e["kind"] == "histogram"]
        assert histogram_events and histogram_events[0]["buckets"]
        for event in events:
            assert validate_event(event) == "metric"

    @pytest.mark.parametrize("buckets", [
        [[1.0, 2], [0.5, 1]],            # bounds not ascending
        [[1.0, 2], [2.0, 2]],            # counts sum to 4, not 3
        [[None, 1], [1.0, 2]],           # null bound not last
        [[1.0, 0], [2.0, 3]],            # zero bucket count
        [[float("inf"), 3]],             # non-finite bound
        "not-a-list",
    ])
    def test_malformed_buckets_rejected(self, buckets):
        event = {"type": "metric", "name": "h", "kind": "histogram",
                 "count": 3, "sum": 3.0, "min": 0.5, "max": 2.0,
                 "buckets": buckets}
        with pytest.raises(SchemaError) as excinfo:
            validate_event(event)
        assert excinfo.value.key == "buckets"

    def test_buckets_field_is_optional(self):
        event = {"type": "metric", "name": "h", "kind": "histogram",
                 "count": 3, "sum": 3.0, "min": 0.5, "max": 2.0}
        assert validate_event(event) == "metric"


# ---------------------------------------------------------------------------
# Satellite 2: SchemaError carries the line number and the offending key
# ---------------------------------------------------------------------------
class TestSchemaErrorPointing:
    def test_validate_event_reports_the_offending_key(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_event(span(1, "s", -1.0))
        assert excinfo.value.key == "duration_s"
        assert excinfo.value.lineno is None

    def test_validate_file_stamps_lineno_and_key(self, tmp_path):
        bad = span(2, "bad", 0.1)
        del bad["attrs"]
        path = write_run(tmp_path / "events.jsonl", [span(1, "ok", 0.1), bad])
        with pytest.raises(SchemaError) as excinfo:
            validate_file(path)
        assert excinfo.value.lineno == 2
        assert excinfo.value.key == "attrs"
        assert "line 2" in str(excinfo.value)

    def test_json_decode_errors_carry_lineno(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(span(1, "ok", 0.1)) + "\n{not json\n")
        with pytest.raises(SchemaError) as excinfo:
            validate_file(path)
        assert excinfo.value.lineno == 2
        assert excinfo.value.key is None

    def test_blank_lines_carry_lineno(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("\n")
        with pytest.raises(SchemaError) as excinfo:
            validate_file(path)
        assert excinfo.value.lineno == 1


# ---------------------------------------------------------------------------
# Satellite 3: version fallback outside a git checkout
# ---------------------------------------------------------------------------
class TestVersionInfo:
    def test_in_repo_source_is_git(self):
        version, source = version_info()
        assert source == "git"
        assert version not in ("", "unknown")

    def test_no_git_directory_falls_back_explicitly(self, tmp_path, monkeypatch):
        from repro.telemetry import manifest as manifest_mod

        monkeypatch.setattr(manifest_mod, "_version_cache", None)
        monkeypatch.setattr(manifest_mod, "_REPO_ROOT", tmp_path)
        assert manifest_mod.version_info() == (
            manifest_mod.VERSION_FALLBACK, "unknown"
        )
        # The fallback is a first-class value the schema accepts.
        event = manifest(version=manifest_mod.VERSION_FALLBACK)
        event["version_source"] = "unknown"
        assert validate_event(event) == "manifest"


# ---------------------------------------------------------------------------
# Tentpole: the RunStore
# ---------------------------------------------------------------------------
class TestRunStore:
    def events(self, command="cmd", phases=None, **kwargs):
        return [span(1, "root", 0.5),
                counter("cache.hits", 3),
                manifest(command=command, phases=phases, **kwargs)]

    def test_ingest_file_indexes_and_roundtrips(self, tmp_path):
        run_file = write_run(tmp_path / "events.jsonl", self.events())
        store = RunStore(tmp_path / "store")
        record = store.ingest(run_file, timestamp=100.0)
        assert record.command == "cmd"
        assert record.events == 3
        assert len(store) == 1
        assert store.load(record) == self.events()
        # The index is plain JSONL, one line per run.
        assert len(store.index_path.read_text().splitlines()) == 1

    def test_manifest_with_legacy_disk_hits_still_ingests(self, tmp_path):
        """Manifests written while the cache had a disk tier carry a
        ``disk_hits`` counter; the validator no longer requires it but
        must keep accepting it, so older run logs stay ingestible."""
        legacy = manifest()
        legacy["cache"]["disk_hits"] = 2
        events = [span(1, "root", 0.5), counter("cache.disk_hits", 2), legacy]
        run_file = write_run(tmp_path / "legacy.jsonl", events)
        assert validate_file(run_file)["manifest"] == 1
        store = RunStore(tmp_path / "store")
        record = store.ingest(run_file, timestamp=100.0)
        assert store.load(record) == events
        current = manifest()
        assert "disk_hits" not in current["cache"]
        validate_event(current)

    def test_reingest_same_timestamp_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.ingest_events(self.events(), timestamp=100.0)
        again = store.ingest_events(self.events(), timestamp=100.0)
        assert first.run_id == again.run_id
        assert len(store) == 1
        # A new timestamp is a new run of the same build+args.
        later = store.ingest_events(self.events(), timestamp=200.0)
        assert later.run_id != first.run_id
        assert len(store) == 2

    def test_ingest_requires_exactly_one_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="exactly one manifest"):
            store.ingest_events([span(1, "s", 0.1)], timestamp=1.0)
        with pytest.raises(ValueError, match="exactly one manifest"):
            store.ingest_events([manifest(), manifest()], timestamp=1.0)

    def test_ingest_validates_events(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(SchemaError):
            store.ingest_events([span(1, "s", -1.0), manifest()], timestamp=1.0)
        assert len(store) == 0

    def test_resolve_latest_command_and_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.ingest_events(self.events(command="cmd.a"), timestamp=1.0)
        b = store.ingest_events(self.events(command="cmd.b"), timestamp=2.0)
        assert store.resolve("latest").run_id == b.run_id
        assert store.resolve("latest:cmd.a").run_id == a.run_id
        assert store.resolve(a.run_id[:8]).run_id == a.run_id
        with pytest.raises(ValueError, match="no run id matches"):
            store.resolve("zzzz")
        with pytest.raises(ValueError, match="no runs"):
            store.resolve("latest:cmd.c")

    def test_resolve_ambiguous_prefix(self, tmp_path):
        import os.path

        store = RunStore(tmp_path)
        a = store.ingest_events(self.events(), timestamp=1.0)
        b = store.ingest_events(self.events(), timestamp=2.0)
        shared = os.path.commonprefix([a.run_id, b.run_id])
        with pytest.raises(ValueError, match="ambiguous"):
            store.resolve(shared)

    def test_corrupt_index_lines_are_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.ingest_events(self.events(), timestamp=1.0)
        with open(store.index_path, "a") as handle:
            handle.write("{torn write\n")
        assert [r.run_id for r in store.records()] == [record.run_id]

    def test_duplicate_index_lines_collapse_to_one_record(self, tmp_path):
        # Racing ingests of the same run can each append an index line;
        # records() must not double-count the run.
        store = RunStore(tmp_path)
        record = store.ingest_events(self.events(), timestamp=1.0)
        with open(store.index_path, "a") as handle:
            handle.write(record.to_line() + "\n")
        assert len(store.index_path.read_text().splitlines()) == 2
        assert [r.run_id for r in store.records()] == [record.run_id]
        assert len(store) == 1

    def test_empty_store_reads_clean(self, tmp_path):
        store = RunStore(tmp_path / "never_written")
        assert store.records() == []
        assert store.latest() is None
        assert not (tmp_path / "never_written").exists()  # lazy: no mkdir

    def test_resolve_run_store_flag_beats_env_beats_off(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        assert resolve_run_store() is None
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env"))
        assert resolve_run_store().root == tmp_path / "env"
        assert resolve_run_store(tmp_path / "flag").root == tmp_path / "flag"

    def test_load_run_file_vs_reference(self, tmp_path):
        run_file = write_run(tmp_path / "events.jsonl", self.events())
        label, events = load_run(str(run_file))
        assert label == str(run_file)
        assert events == self.events()
        with pytest.raises(ValueError, match="no run store"):
            load_run("latest")


# ---------------------------------------------------------------------------
# Satellite 4: analyzer math on hand-built trees
# ---------------------------------------------------------------------------
class TestAnalyzerMath:
    def test_self_time_is_duration_minus_children_exactly(self):
        events = [
            span(1, "root", 1.0),
            span(2, "child.fast", 0.25, parent=1),
            span(3, "child.slow", 0.5, parent=1),
            span(4, "grandchild", 0.2, parent=3),
        ]
        roots = build_span_forest(events)
        assert len(roots) == 1
        by_name = {row["name"]: row for row in self_time_table(roots)}
        assert by_name["root"]["self_s"] == pytest.approx(1.0 - 0.25 - 0.5)
        assert by_name["child.slow"]["self_s"] == pytest.approx(0.5 - 0.2)
        assert by_name["child.fast"]["self_s"] == pytest.approx(0.25)
        assert by_name["grandchild"]["self_s"] == pytest.approx(0.2)
        # The identity: self-times sum back to the root's wall-clock.
        assert sum(r["self_s"] for r in by_name.values()) == pytest.approx(1.0)
        # Fractions are over total self-time and sum to 1.
        assert sum(r["self_fraction"] for r in by_name.values()) == pytest.approx(1.0)

    def test_negative_self_time_signals_concurrency(self):
        # Adopted worker spans can overlap: children sum past the parent.
        roots = build_span_forest([
            span(1, "pool", 1.0),
            span(2, "worker", 0.8, parent=1),
            span(3, "worker", 0.7, parent=1),
        ])
        assert roots[0].self_seconds == pytest.approx(1.0 - 1.5)

    def test_critical_path_beats_greedy_descent(self):
        # Greedy picks the fatter child (a: 6) and stops; the DP finds
        # the deep chain under the thinner child (b: 5 + 4 = 9).
        events = [
            span(1, "root", 10.0),
            span(2, "a", 6.0, parent=1),
            span(3, "b", 5.0, parent=1),
            span(4, "b.deep", 4.0, parent=3),
        ]
        path = [node.name for node in critical_path(build_span_forest(events))]
        assert path == ["root", "b", "b.deep"]

    def test_critical_path_over_a_forest_picks_the_tallest_tree(self):
        events = [span(1, "small", 1.0), span(2, "big", 2.0),
                  span(3, "big.child", 1.5, parent=2)]
        path = [n.name for n in critical_path(build_span_forest(events))]
        assert path == ["big", "big.child"]
        assert critical_path([]) == []

    def test_orphan_spans_become_roots(self):
        roots = build_span_forest([span(5, "orphan", 0.1, parent=999)])
        assert [r.name for r in roots] == ["orphan"]

    def test_duplicate_span_ids_are_not_double_counted(self):
        # The schema doesn't force ids unique: the first event wins and
        # later reuses are dropped, so self-time stays exact.
        roots = build_span_forest([
            span(1, "root", 1.0),
            span(2, "child", 0.4, parent=1),
            span(2, "child.dup", 0.3, parent=1),
        ])
        assert len(roots) == 1
        assert [c.name for c in roots[0].children] == ["child"]
        assert roots[0].self_seconds == pytest.approx(0.6)

    def test_critical_path_survives_very_deep_chains(self):
        # A 5000-deep chain would blow the recursion limit on a
        # recursive solve; the iterative walk must not.
        depth = 5000
        events = [span(1, "s0", 1.0)]
        events += [span(i, f"s{i - 1}", 1.0, parent=i - 1)
                   for i in range(2, depth + 1)]
        path = critical_path(build_span_forest(events))
        assert len(path) == depth

    def test_cache_audit_rates_match_cachestats_semantics(self):
        from repro.scenarios import CacheStats

        metrics = [
            counter("cache.hits", 6), counter("cache.misses", 2),
            counter("cache.simulations", 2),
            counter("cache.risk_hits", 3), counter("cache.risk_misses", 1),
        ]
        audit = cache_audit(metrics)
        assert audit["lookups"] == 8
        assert audit["hit_rate"] == pytest.approx(0.75)
        assert audit["hit_rate"] == CacheStats(hits=6, misses=2, entries=2).hit_rate
        assert audit["simulations_per_lookup"] == pytest.approx(0.25)
        assert audit["risk_hit_rate"] == pytest.approx(0.75)

    def test_cache_audit_zero_lookups_is_zero_not_nan(self):
        audit = cache_audit([])
        assert audit["hit_rate"] == 0.0
        assert audit["simulations_per_lookup"] == 0.0

    def test_latency_percentiles_skip_empty_histograms(self):
        hist = Histogram("cache.fetch.memory_seconds")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        events = metric_events({
            "cache.fetch.memory_seconds": hist.snapshot(),
            "cache.fetch.disk_seconds": Histogram("d").snapshot(),
        })
        summaries = latency_percentiles(events)
        assert list(summaries) == ["cache.fetch.memory_seconds"]
        summary = summaries["cache.fetch.memory_seconds"]
        assert summary["count"] == 3
        assert 0.001 <= summary["p50_s"] <= 0.004
        assert 0.001 <= summary["p95_s"] <= 0.004
        assert summary["p50_s"] <= summary["p95_s"]

    def test_analyze_run_full_profile(self):
        events = [
            span(1, "root", 1.0),
            span(2, "child", 0.6, parent=1),
            counter("cache.hits", 1),
            manifest(command="cmd", phases={"root": 1.0, "child": 0.6}),
        ]
        profile = analyze_run(events)
        assert profile["command"] == "cmd"
        assert profile["version_source"] == "git"
        assert profile["spans"] == 2
        assert profile["critical_path_seconds"] == pytest.approx(1.0)
        assert [hop["name"] for hop in profile["critical_path"]] == [
            "root", "child"]
        assert profile["phases"] == {"child": 0.6, "root": 1.0}


# ---------------------------------------------------------------------------
# The compare gate
# ---------------------------------------------------------------------------
class TestCompare:
    def test_regression_needs_relative_and_absolute_slowdown(self):
        rows = phase_deltas({"slow": 1.0, "micro": 0.001},
                            {"slow": 1.5, "micro": 0.005},
                            threshold=0.2, min_seconds=0.01)
        verdicts = {row["phase"]: row["verdict"] for row in rows}
        assert verdicts["slow"] == "regression"       # 50% and 0.5 s slower
        assert verdicts["micro"] == "ok"              # 5x but under the floor

    def test_improvement_is_symmetric(self):
        rows = phase_deltas({"p": 1.5}, {"p": 1.0})
        assert rows[0]["verdict"] == "improvement"

    def test_added_and_removed_phases_never_gate(self):
        result = compare_runs(
            [manifest(phases={"old": 5.0})],
            [manifest(phases={"new": 5.0})],
        )
        verdicts = {row["phase"]: row["verdict"] for row in result["phases"]}
        assert verdicts == {"old": "removed", "new": "added"}
        assert result["verdict"] == "ok"

    def test_counter_deltas_only_report_changes(self):
        rows = counter_deltas({"cache.hits": 3, "cache.misses": 1},
                              {"cache.hits": 5, "cache.misses": 1})
        assert rows == [{"counter": "cache.hits", "baseline": 3,
                         "candidate": 5, "delta": 2}]

    def test_identical_runs_diff_to_zero(self):
        events = [counter("cache.hits", 3), manifest(phases={"p": 1.0})]
        result = compare_runs(events, events)
        assert result["verdict"] == "ok"
        assert result["counters"] == []

    def test_cli_exit_codes_gate_on_regression(self, tmp_path, capsys):
        base = write_run(tmp_path / "base.jsonl",
                         [manifest(phases={"plan": 1.0})])
        slow = write_run(tmp_path / "slow.jsonl",
                         [manifest(phases={"plan": 2.0})])
        assert compare_main([str(base), str(slow), "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The improvement direction and a loose threshold both pass.
        assert compare_main([str(slow), str(base), "--threshold", "0.2"]) == 0
        assert compare_main([str(base), str(slow), "--threshold", "1.5"]) == 0

    def test_cli_json_payload_names_both_runs(self, tmp_path, capsys):
        base = write_run(tmp_path / "base.jsonl",
                         [manifest(phases={"plan": 1.0})])
        assert compare_main([str(base), str(base), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == str(base)
        assert payload["verdict"] == "ok"

    def test_cli_resolution_errors_exit_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        assert compare_main(["latest"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_baseline_latest_diffs_the_two_newest_runs(self, tmp_path):
        store = RunStore(tmp_path)
        store.ingest_events([manifest(phases={"plan": 1.0})], timestamp=1.0)
        store.ingest_events([manifest(phases={"plan": 4.0})], timestamp=2.0)
        # candidate = latest (4.0), baseline = the run before it (1.0).
        assert compare_main(["latest", "--baseline", "latest",
                             "--store", str(tmp_path),
                             "--threshold", "0.2"]) == 1
        # Flip: explicit oldest-as-candidate sees an improvement.
        first = store.records()[0].run_id
        assert compare_main([first, "--baseline", "latest",
                             "--store", str(tmp_path)]) == 0

    def test_file_candidate_never_baselines_against_its_own_copy(
            self, tmp_path, capsys):
        # A file-path candidate carries the path as its label, so run-id
        # exclusion alone would let the baseline resolve to the stored
        # copy of the same run and the gate would diff a run against
        # itself. Content equality must skip that copy.
        store = RunStore(tmp_path / "store")
        store.ingest_events([manifest(phases={"plan": 1.0})], timestamp=1.0)
        slow = [manifest(phases={"plan": 4.0})]
        store.ingest_events(slow, timestamp=2.0)
        slow_file = write_run(tmp_path / "slow.jsonl", slow)
        assert compare_main([str(slow_file), "--baseline", "latest",
                             "--store", str(tmp_path / "store"),
                             "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # A store holding only copies of the candidate has no baseline.
        lone = RunStore(tmp_path / "lone")
        lone.ingest_events(slow, timestamp=3.0)
        assert compare_main([str(slow_file), "--baseline", "latest",
                             "--store", str(tmp_path / "lone")]) == 2
        assert "no baseline run" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# End to end: CLI --run-store -> store -> analyze -> compare
# ---------------------------------------------------------------------------
class TestRunStoreWiring:
    @pytest.fixture
    def fresh_globals(self):
        tracer = reset_default_tracer()
        cache = reset_default_cache()
        yield tracer, cache
        reset_default_tracer()
        reset_default_cache()

    SPOT_ARGS = ["--model", "blackmamba", "--gpu", "a40", "--provider",
                 "cudo", "--num-gpus", "1", "--density", "sparse",
                 "--interconnect", "pcie-gen4"]

    def test_plan_ingests_then_analyze_and_compare_consume(
            self, tmp_path, capsys, fresh_globals, monkeypatch):
        from repro.spot.plan import main as spot_plan_main

        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        store_dir = tmp_path / "runstore"
        for _ in range(2):
            assert spot_plan_main(
                self.SPOT_ARGS + ["--run-store", str(store_dir)]) == 0
            reset_default_tracer()
            reset_default_cache()
        capsys.readouterr()
        store = RunStore(store_dir)
        records = store.records()
        assert [r.command for r in records] == ["repro.spot.plan"] * 2
        assert records[0].run_id != records[1].run_id

        assert analyze_main(["latest", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "cache audit" in out

        assert compare_main(["latest", "--baseline", "latest",
                             "--store", str(store_dir),
                             "--threshold", "5.0"]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_env_var_alone_enables_recording(self, tmp_path, capsys,
                                             fresh_globals, monkeypatch):
        from repro.spot.plan import main as spot_plan_main

        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env_store"))
        assert spot_plan_main(self.SPOT_ARGS) == 0
        capsys.readouterr()
        assert len(RunStore(tmp_path / "env_store")) == 1

    def test_analyze_reads_telemetry_out_files_directly(
            self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        run_file = tmp_path / "events.jsonl"
        write_run(run_file, [
            span(1, "root", 1.0),
            *metric_events(registry.snapshot()),
            manifest(phases={"root": 1.0}),
        ])
        assert analyze_main([str(run_file), "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["run"] == str(run_file)
        assert profile["critical_path_seconds"] == pytest.approx(1.0)
