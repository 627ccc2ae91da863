"""Tests for the scenario engine: scenario identity and digests, grid
building, cache accounting and single-flight, sweep determinism, and
regression equivalence of the refactored experiments against the seed
(direct-simulator) path."""

import hashlib
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import ClusterScenario

from repro.experiments import fig8_throughput, report, table3_maxbatch, table4_cost
from repro.gpu import A40, A100_80, GPUSimulator
from repro.memory import max_batch_size
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from repro.scenarios import (
    Scenario,
    ScenarioGrid,
    SimulationCache,
    SweepRunner,
    default_cache,
    freeze_overrides,
)


THREADS = 8


def race(n, call):
    """Run ``call`` on ``n`` threads released together by a barrier,
    with a short thread switch interval so they interleave; returns the
    results in thread order."""
    barrier = threading.Barrier(n)
    results = [None] * n

    def worker(i):
        barrier.wait(timeout=10.0)
        results[i] = call()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestScenario:
    def test_hashing_and_equality(self):
        a = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=2, seq_len=128, dense=False)
        b = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=2, seq_len=128, dense=False)
        c = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=3, seq_len=128, dense=False)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_registry_keys_resolve_to_same_cache_key(self):
        by_key = Scenario(model="mixtral-8x7b", gpu="A40", batch_size=1, seq_len=128)
        by_obj = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=1, seq_len=128)
        assert by_key.key() == by_obj.key()
        assert by_key.config is MIXTRAL_8X7B
        assert by_key.gpu_spec is A40

    def test_dataset_resolves_median_seq_len(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k")
        assert s.resolved_seq_len == 79
        assert Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="math14k").resolved_seq_len == 174

    def test_explicit_seq_len_wins_over_dataset(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k", seq_len=80)
        assert s.resolved_seq_len == 80

    def test_requires_seq_len_or_dataset(self):
        with pytest.raises(ValueError):
            Scenario(model=MIXTRAL_8X7B, gpu=A40)
        with pytest.raises(ValueError):
            Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=128, batch_size=0)

    def test_label_convention(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k",
                     batch_size=2, dense=False)
        assert s.label() == "mixtral_commonsense15k_S2"
        assert s.with_(dense=True).label() == "mixtral_commonsense15k_D2"
        assert Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=128).label() == "blackmamba_S1"

    def test_overrides_normalize_from_dict(self):
        from_dict = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                             overrides={"quantized": False})
        from_items = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                              overrides=(("quantized", False),))
        assert from_dict == from_items
        assert from_dict.overrides_dict() == {"quantized": False}
        assert freeze_overrides({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_unsorted_tuple_overrides_normalize(self):
        unsorted = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                            overrides=(("b", 1), ("a", 2)))
        as_dict = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                           overrides={"a": 2, "b": 1})
        assert unsorted == as_dict
        assert hash(unsorted) == hash(as_dict)
        assert unsorted.key() == as_dict.key()

    def test_max_batch_size_matches_oracle(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=80, dense=False)
        assert s.max_batch_size() == max_batch_size(MIXTRAL_8X7B, A40, 80, False)


class TestScenarioDigest:
    GRID = ScenarioGrid.product(
        models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
        dense=(True, False), batch_sizes=(1, 2, 3, 4),
    )

    @staticmethod
    def scenario() -> Scenario:
        return Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)

    def test_digest_is_sha256_of_canonical_text(self):
        s = self.scenario()
        expected = hashlib.sha256(s.canonical_text().encode()).hexdigest()
        assert s.digest() == expected
        assert len(s.digest()) == 64

    def test_equal_resolved_keys_share_a_digest(self):
        # Registry-key vs object spelling, and dataset vs explicit
        # seq_len, resolve to one key — and must share one digest.
        by_key = Scenario(model="blackmamba-2.8b", gpu="A40", dataset="commonsense15k")
        by_obj = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=79)
        assert by_key.key() == by_obj.key()
        assert by_key.canonical_text() == by_obj.canonical_text()
        assert by_key.digest() == by_obj.digest()

    def test_distinct_scenarios_get_distinct_digests(self):
        digests = {s.digest() for s in self.GRID}
        assert len(digests) == len(self.GRID)

    def test_cluster_scenario_shares_the_replica_digest(self):
        # ClusterScenario inherits key() (the replica trace ignores the
        # cluster axes), so it shares the replica's digest too.
        cluster = ClusterScenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=64,
                                  num_gpus=8, interconnect="pcie-gen4")
        assert cluster.digest() == self.scenario().digest()

    def test_digest_is_stable_across_interpreter_runs(self):
        # key() tuples hash differently per run (PYTHONHASHSEED); the
        # digest is the cross-process identity, so a fresh interpreter
        # must reproduce it bit-for-bit.
        code = (
            "from repro.models import BLACKMAMBA_2_8B\n"
            "from repro.gpu import A40\n"
            "from repro.scenarios import Scenario\n"
            "print(Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=3,\n"
            "               seq_len=128, dense=True).digest())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)))
        assert out.returncode == 0, out.stderr
        local = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=3,
                         seq_len=128, dense=True).digest()
        assert out.stdout.strip() == local


class TestScenarioGrid:
    def test_product_order_is_deterministic(self):
        grid = ScenarioGrid.product(
            models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B),
            gpus=(A40,),
            seq_lens=(128,),
            dense=(True, False),
            batch_sizes=(1, 2),
        )
        assert len(grid) == 8
        assert grid.labels()[:4] == ["mixtral_D1", "mixtral_D2", "mixtral_S1", "mixtral_S2"]
        assert grid == ScenarioGrid.product(
            models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B), gpus=(A40,), seq_lens=(128,),
            dense=(True, False), batch_sizes=(1, 2),
        )

    def test_filter_and_concat(self):
        grid = ScenarioGrid.product(models=(MIXTRAL_8X7B,), gpus=(A40,),
                                    seq_lens=(128,), batch_sizes=(1, 2, 3, 4))
        evens = grid.filter(lambda s: s.batch_size % 2 == 0)
        assert [s.batch_size for s in evens] == [2, 4]
        assert len(evens + grid) == 6

    def test_batch_sweep_spans_oracle_range(self):
        upper = max_batch_size(MIXTRAL_8X7B, A40, 80, False)
        grid = ScenarioGrid.batch_sweep(MIXTRAL_8X7B, A40, seq_len=80, dense=False)
        assert [s.batch_size for s in grid] == list(range(1, upper + 1))

    def test_batch_sweep_floors_at_one(self):
        # Dense Mixtral at a long length does not fit; the sweep still
        # contributes its batch-1 point, as the fitting procedure expects.
        grid = ScenarioGrid.batch_sweep(MIXTRAL_8X7B, A40, seq_len=4096, dense=True)
        assert [s.batch_size for s in grid] == [1]


class TestSimulationCache:
    def test_resolve_cache(self):
        from repro.scenarios import resolve_cache

        explicit = SimulationCache()
        assert resolve_cache(explicit) is explicit
        assert resolve_cache(None) is default_cache()

    def test_hit_miss_accounting(self):
        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        first = cache.simulate(s)
        assert (cache.stats().hits, cache.stats().misses) == (0, 1)
        second = cache.simulate(s)
        assert second is first
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)
        cache.simulate(s.with_(batch_size=2))
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 2, 2)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_equivalent_scenarios_share_one_trace(self):
        cache = SimulationCache()
        with_dataset = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, dataset="commonsense15k")
        with_seq_len = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=79)
        assert cache.simulate(with_dataset) is cache.simulate(with_seq_len)
        assert cache.stats().misses == 1

    def test_trace_matches_direct_simulator(self):
        cache = SimulationCache()
        cached = cache.trace(BLACKMAMBA_2_8B, A40, 2, 64, dense=True)
        direct = GPUSimulator(A40).simulate_step(BLACKMAMBA_2_8B, 2, 64, dense=True)
        assert cached.total_seconds == direct.total_seconds
        assert cached.queries_per_second == direct.queries_per_second

    def test_memoize_counts_in_the_stats(self):
        """Regression: derived-result traffic used to bypass the hit/miss
        counters entirely, so Eq. 2 fits looked free in benchmarks."""
        cache = SimulationCache()
        assert cache.memoize(("fit", 1), lambda: "a") == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)
        assert cache.memoize(("fit", 1), lambda: "recomputed") == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        # ...but a derived miss is not a simulation.
        assert stats.simulations == 0

    def test_memoize_kind_risk_uses_dedicated_counters(self):
        """kind="risk" books into risk_hits/risk_misses so the spot
        planner's memoized risk results stay distinguishable from trace
        and fit traffic (which several tests pin exactly)."""
        cache = SimulationCache()
        assert cache.memoize(("risk", 1), lambda: "r", kind="risk") == "r"
        assert cache.memoize(("risk", 1), lambda: "no", kind="risk") == "r"
        stats = cache.stats()
        assert (stats.risk_hits, stats.risk_misses) == (1, 1)
        assert (stats.hits, stats.misses) == (0, 0)
        # The namespace is shared; only the accounting differs.
        assert cache.memoize(("risk", 1), lambda: "no") == "r"
        assert cache.stats().hits == 1
        cache.clear()
        assert cache.stats().risk_hits == 0
        assert cache.stats().risk_misses == 0

    def test_counts_are_the_stats_counters(self):
        """counts() is the lock-free read the service's engine deltas use:
        the six counters of stats(), in the engine block's order."""
        cache = SimulationCache(capacity=1)
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        cache.simulate(s)
        cache.simulate(s)
        cache.simulate(s.with_(batch_size=2))
        cache.memoize(("risk", 1), lambda: "r", kind="risk")
        cache.memoize(("risk", 1), lambda: "r", kind="risk")
        stats = cache.stats()
        assert cache.counts() == (stats.simulations, stats.hits, stats.misses,
                                  stats.risk_hits, stats.risk_misses, stats.evictions)
        assert cache.counts() == (2, 1, 2, 1, 1, 1)

    def test_memoize_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SimulationCache().memoize(("k",), lambda: 1, kind="spot")

    def test_derived_and_trace_inflight_namespaces_are_disjoint(self):
        """Regression: memoize() and simulate() shared one in-flight map,
        so a derived computation keyed by a scenario key (or a colliding
        tuple) would stall — or race the event teardown of — the trace
        path. A simulate must not wait on a slow memoize of the same key."""
        import threading

        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        started, release = threading.Event(), threading.Event()

        def slow_fit():
            started.set()
            # Held open until the main thread releases it, so the
            # assertion is about ordering, not machine speed.
            assert release.wait(timeout=30.0)
            return "fit"

        worker = threading.Thread(target=lambda: cache.memoize(s.key(), slow_fit))
        worker.start()
        assert started.wait(timeout=5.0)
        # With a shared in-flight map this would deadlock until the
        # memoize completed; disjoint namespaces let it proceed.
        cache.simulate(s)
        assert cache.stats().simulations == 1
        release.set()
        worker.join()
        assert cache.memoize(s.key(), lambda: "recomputed") == "fit"

    def test_memoize_collapses_concurrent_computes(self):
        """Racing memoize calls on one key compute once: the property the
        planning service's request threads rely on for derived results."""
        cache = SimulationCache()
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.05)  # hold the in-flight slot while the others arrive
            return "fit"

        results = race(THREADS, lambda: cache.memoize(("k",), compute))
        assert results == ["fit"] * THREADS
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, THREADS - 1)

    def test_concurrent_simulates_collapse_to_one_simulation(self):
        """Racing simulate calls on one scenario run ``simulate_step``
        once and all receive the one trace."""
        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        simulator = cache.simulator(A40)
        original = simulator.simulate_step

        def slow_simulate_step(*args, **kwargs):
            time.sleep(0.05)  # hold the in-flight slot while the others arrive
            return original(*args, **kwargs)

        simulator.simulate_step = slow_simulate_step
        traces = race(THREADS, lambda: cache.simulate(s))
        assert all(trace is traces[0] for trace in traces)
        stats = cache.stats()
        assert stats.simulations == 1
        assert (stats.misses, stats.hits, stats.entries) == (1, THREADS - 1, 1)

    def test_clear_and_contains(self):
        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        cache.simulate(s)
        assert s in cache and len(cache) == 1
        cache.clear()
        assert s not in cache and len(cache) == 0
        assert cache.stats().lookups == 0


class TestSweepRunner:
    GRID = ScenarioGrid.product(
        models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
        dense=(True, False), batch_sizes=(1, 2, 3, 4),
    )

    def test_runs_are_deterministic_and_in_grid_order(self):
        first = SweepRunner(cache=SimulationCache()).run(self.GRID)
        second = SweepRunner(cache=SimulationCache()).run(self.GRID)
        assert [p.label for p in first] == [p.label for p in second]
        assert [p.queries_per_second for p in first] == [
            p.queries_per_second for p in second
        ]
        assert [p.scenario for p in first] == list(self.GRID)
        assert [p.index for p in first] == list(range(len(self.GRID)))

    def test_duplicates_collapse_in_cache(self):
        cache = SimulationCache()
        doubled = self.GRID + self.GRID
        SweepRunner(cache=cache).run(doubled)
        stats = cache.stats()
        assert stats.entries == len(self.GRID)
        assert stats.misses == stats.simulations == len(self.GRID)
        assert stats.hits == len(self.GRID)

class TestRegressionAgainstSeed:
    def test_fig8_rows_identical_to_direct_simulator(self):
        """The refactored fig8 must reproduce the seed implementation's
        rows exactly: same labels, same order, bitwise-equal values."""
        seed_grid = [
            (MIXTRAL_8X7B, "commonsense15k", True, 1), (MIXTRAL_8X7B, "commonsense15k", True, 2),
            (MIXTRAL_8X7B, "commonsense15k", False, 1), (MIXTRAL_8X7B, "commonsense15k", False, 2),
            (MIXTRAL_8X7B, "commonsense15k", False, 8), (MIXTRAL_8X7B, "math14k", True, 1),
            (MIXTRAL_8X7B, "math14k", False, 1), (MIXTRAL_8X7B, "math14k", False, 3),
            (BLACKMAMBA_2_8B, "commonsense15k", True, 1), (BLACKMAMBA_2_8B, "commonsense15k", True, 6),
            (BLACKMAMBA_2_8B, "commonsense15k", False, 1), (BLACKMAMBA_2_8B, "commonsense15k", False, 6),
            (BLACKMAMBA_2_8B, "commonsense15k", False, 20), (BLACKMAMBA_2_8B, "math14k", True, 1),
            (BLACKMAMBA_2_8B, "math14k", True, 2), (BLACKMAMBA_2_8B, "math14k", False, 1),
            (BLACKMAMBA_2_8B, "math14k", False, 2), (BLACKMAMBA_2_8B, "math14k", False, 8),
        ]
        sim = GPUSimulator(A40)
        seed_rows = [
            (
                f"{cfg.family}_{dataset}_{'D' if dense else 'S'}{batch}",
                sim.throughput(cfg, batch, fig8_throughput.THROUGHPUT_SEQ_LEN[dataset],
                               dense=dense),
            )
            for cfg, dataset, dense, batch in seed_grid
        ]
        result = fig8_throughput.run(cache=SimulationCache())
        assert [(r.label, r.measured) for r in result.rows[: len(seed_rows)]] == seed_rows

    def test_table3_cells_exact(self):
        result = table3_maxbatch.run()
        assert all(r.measured == r.paper for r in result.rows)

    def test_cost_model_identical_on_other_gpu(self):
        from repro.core import FineTuningCostModel

        cached = FineTuningCostModel.for_dataset(
            MIXTRAL_8X7B, "gsm8k", dense=False, cache=SimulationCache()
        ).estimate(A100_80, num_queries=1000)
        fresh = FineTuningCostModel.for_dataset(
            MIXTRAL_8X7B, "gsm8k", dense=False, cache=SimulationCache()
        ).estimate(A100_80, num_queries=1000)
        assert cached == fresh


class TestWarmReport:
    def test_fig8_and_table4_rerun_simulates_nothing(self):
        """The two heaviest sweep consumers, rerun on one cache, book only
        hits on the second pass."""
        cache = SimulationCache()

        def sweep():
            fig8_throughput.run(cache=cache)
            table4_cost.run(cache=cache)
            return cache.stats()

        cold = sweep()
        warm = sweep()
        assert cold.misses > 0
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits

    def test_second_report_pass_simulates_nothing(self):
        """Acceptance criterion: rerunning the full non-training report in
        one process performs zero redundant simulate_step calls — the miss
        counter must not move on the second pass."""
        first = report.run_report(include_training=False)
        misses_after_first = default_cache().stats().misses
        second = report.run_report(include_training=False)
        stats = default_cache().stats()
        assert stats.misses == misses_after_first
        assert stats.hits >= misses_after_first
        # The reports themselves agree row-for-row.
        assert [l for l in first.splitlines() if not l.startswith("== scenario cache")] == [
            l for l in second.splitlines() if not l.startswith("== scenario cache")
        ]

    def test_json_payload_roundtrips(self):
        import json

        payload = report.report_payload(include_training=False)
        decoded = json.loads(json.dumps(payload))
        ids = {e["id"] for e in decoded["experiments"]}
        assert {"fig8", "table3", "table4", "fig14", "fig15"} <= ids
        assert decoded["skipped"] == ["fig3", "fig11"]
        assert decoded["cache"]["misses"] >= 0
