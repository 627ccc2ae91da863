"""Tests for the cluster planning subsystem."""

import json

import pytest

from repro.cluster import (
    ClusterPlanner,
    ClusterScenario,
    pareto_frontier,
)
from repro.cluster.plan import main as plan_main, resolve_gpu_name, resolve_model_key
from repro.gpu import A40, DataParallelSimulator, H100, NVLINK, PCIE_GEN4
from repro.models import MIXTRAL_8X7B
from repro.scenarios import Scenario, SimulationCache


def scenario(n=1, link="nvlink", batch=4, **kw):
    defaults = dict(model=MIXTRAL_8X7B, gpu="A40", batch_size=batch, seq_len=128)
    defaults.update(kw)
    return ClusterScenario(num_gpus=n, interconnect=link, **defaults)


class TestClusterScenario:
    def test_frozen_and_hashable(self):
        a = scenario(n=4)
        b = scenario(n=4)
        assert a == b and hash(a) == hash(b)
        assert a != scenario(n=2)
        with pytest.raises(AttributeError):  # FrozenInstanceError
            a.num_gpus = 8

    def test_interconnect_normalized_on_construction(self):
        assert scenario(link="nvlink") == scenario(link=NVLINK)
        assert scenario(link="PCIe-Gen4").interconnect_spec is PCIE_GEN4

    def test_distinct_from_plain_scenario(self):
        plain = Scenario(model=MIXTRAL_8X7B, gpu="A40", batch_size=4, seq_len=128)
        assert scenario(n=1) != plain

    def test_key_excludes_cluster_axes(self):
        """The load-bearing property: every cluster size/interconnect of
        one replica maps to the same trace-cache key."""
        replica_key = scenario(n=1).replica().key()
        for n in (1, 2, 8):
            for link in ("nvlink", "pcie-gen4"):
                assert scenario(n=n, link=link).key() == replica_key

    def test_cluster_key_includes_cluster_axes(self):
        keys = {scenario(n=n, link=link).cluster_key()
                for n in (1, 2) for link in ("nvlink", "pcie-gen4")}
        assert len(keys) == 4

    def test_labels_carry_cluster_axes(self):
        s = scenario(n=8)
        assert s.label().endswith("_x8_NVLink")
        assert s.label(include_gpu=True) == "mixtral_S4_A40_x8_NVLink"

    def test_invalid_num_gpus(self):
        with pytest.raises(ValueError):
            scenario(n=0)

    def test_unknown_interconnect(self):
        with pytest.raises(KeyError):
            scenario(link="token-ring")

    def test_with_preserves_cluster_axes(self):
        s = scenario(n=4, link="pcie-gen4").with_(batch_size=2)
        assert s.num_gpus == 4 and s.interconnect_spec is PCIE_GEN4
        assert s.batch_size == 2

    def test_global_batch_size(self):
        assert scenario(n=4, batch=3).global_batch_size() == 12


class TestClusterTraceSharing:
    def test_cluster_sizes_share_one_simulation(self):
        cache = SimulationCache()
        for n in (1, 2, 4, 8):
            for link in ("nvlink", "pcie-gen4"):
                cache.simulate(scenario(n=n, link=link))
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 7
        assert stats.entries == 1

    def test_cluster_and_plain_scenarios_share_traces(self):
        cache = SimulationCache()
        cache.simulate(scenario(n=8))
        plain = Scenario(model=MIXTRAL_8X7B, gpu="A40", batch_size=4, seq_len=128)
        cache.simulate(plain)
        assert cache.stats().misses == 1

    def test_estimate_matches_data_parallel_simulator(self):
        cache = SimulationCache()
        estimate = scenario(n=4, link="pcie-gen4").estimate(cache)
        reference = DataParallelSimulator(A40, interconnect=PCIE_GEN4).estimate(
            MIXTRAL_8X7B, 4, 128, num_gpus=4
        )
        assert estimate == reference


class TestParetoFrontier:
    def _plan(self, cache=None, **kw):
        planner = ClusterPlanner(
            "mixtral-8x7b", dataset="math14k", cache=cache or SimulationCache()
        )
        kw.setdefault("gpus", (A40, H100))
        kw.setdefault("providers", ("cudo",))
        kw.setdefault("densities", (False,))
        return planner.plan(**kw)

    def test_frontier_is_nondominated_and_ordered(self):
        plan = self._plan()
        frontier = plan.frontier
        assert frontier
        # Fastest-first, strictly cheaper as we slow down.
        hours = [c.hours for c in frontier]
        dollars = [c.dollars for c in frontier]
        assert hours == sorted(hours)
        assert all(b < a for a, b in zip(dollars, dollars[1:]))
        # Every non-frontier candidate is dominated by a frontier point.
        for candidate in plan.candidates:
            if candidate in frontier:
                continue
            assert any(
                f.hours <= candidate.hours and f.dollars <= candidate.dollars
                for f in frontier
            )

    def test_deadline_selects_cheapest_feasible(self):
        plan = self._plan(deadline_hours=24.0)
        assert plan.cheapest is not None
        assert plan.cheapest.hours <= 24.0
        for candidate in plan.feasible:
            assert plan.cheapest.dollars <= candidate.dollars

    def test_impossible_target_yields_no_recommendation(self):
        plan = self._plan(deadline_hours=1e-6)
        assert plan.cheapest is None and plan.fastest is None
        assert plan.frontier  # the frontier itself is target-independent

    def test_budget_filter(self):
        unconstrained = self._plan()
        ceiling = min(c.dollars for c in unconstrained.candidates) * 1.01
        plan = self._plan(budget_dollars=ceiling)
        assert plan.cheapest is not None
        assert plan.cheapest.dollars <= ceiling

    def test_infeasible_memory_cells_skipped_not_failed(self):
        planner = ClusterPlanner(
            "mixtral-8x7b", dataset="math14k", cache=SimulationCache()
        )
        plan = planner.plan(gpus=("A100-40GB",), providers=("cudo",))
        assert not plan.candidates
        assert plan.skipped

    def test_unpriced_gpu_provider_pair_skipped_before_simulation(self):
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
        plan = planner.plan(gpus=(A40,), providers=("lambda",))  # lambda has no A40
        assert not plan.candidates
        assert any("not priced" in reason for reason in plan.skipped)
        assert cache.stats().lookups == 0  # filtered before tracing

    def test_duplicate_axis_values_collapse(self):
        plan = self._plan(num_gpus=(4, 4), interconnects=("nvlink", NVLINK))
        assert len(plan.candidates) == len({c.label for c in plan.candidates})

    def test_pareto_helper_deterministic_tiebreak(self):
        plan = self._plan()
        shuffled = list(reversed(plan.candidates))
        assert [c.label for c in pareto_frontier(shuffled)] == [
            c.label for c in plan.frontier
        ]


class TestPlannerDeterminismAndReuse:
    def test_fresh_planners_give_identical_plans(self):
        plans = [TestParetoFrontier()._plan(deadline_hours=24.0) for _ in range(2)]
        first, second = (p.to_payload() for p in plans)
        assert first == second
        assert [c.label for c in plans[0].candidates] == [
            c.label for c in plans[1].candidates
        ]

    def test_warm_plan_zero_redundant_simulations(self):
        """Acceptance: a warm planner pass performs zero simulate_step
        calls; within the cold pass, cluster sizes sharing a replica
        scenario simulate once."""
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(False,))
        cold = planner.plan(**kwargs)
        cold_stats = cache.stats()
        # 4 cluster sizes x 2 interconnects share the single replica.
        assert cold_stats.misses == 1
        assert cold_stats.lookups == 8
        warm = planner.plan(**kwargs)
        warm_stats = cache.stats()
        assert warm_stats.misses == cold_stats.misses
        assert warm_stats.hits == cold_stats.hits + 8
        assert warm.to_payload() == cold.to_payload()

    def test_default_sweep_shares_each_replica_eightfold(self):
        """Over the planner's default GPU x density sweep, even the cold
        pass simulates each replica once for its 4 cluster sizes x 2
        interconnects, and the warm pass simulates nothing."""
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
        kwargs = dict(providers=("cudo",), deadline_hours=24.0)
        cold = planner.plan(**kwargs)
        cold_stats = cache.stats()
        assert cold_stats.lookups >= 8 * cold_stats.misses > 0
        warm = planner.plan(**kwargs)
        warm_stats = cache.stats()
        assert warm_stats.misses == cold_stats.misses
        assert warm_stats.hits > cold_stats.hits
        assert [c.label for c in warm.frontier] == [c.label for c in cold.frontier]

    def test_scaling_a_sweep_does_not_resimulate(self):
        """Scaling a 1-GPU sweep to 8 GPUs reuses the replica traces."""
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
        kwargs = dict(gpus=(A40, H100), providers=("cudo",), densities=(False,))
        planner.plan(num_gpus=(1,), interconnects=("nvlink",), **kwargs)
        misses_single = cache.stats().misses
        planner.plan(num_gpus=(1, 2, 4, 8), **kwargs)
        assert cache.stats().misses == misses_single


class TestCandidateAccounting:
    def test_dollars_are_hours_times_fleet_rate(self):
        plan = TestParetoFrontier()._plan()
        for candidate in plan.candidates:
            fleet_rate = candidate.dollars_per_gpu_hour * candidate.scenario.num_gpus
            assert candidate.dollars == pytest.approx(candidate.hours * fleet_rate)
            assert candidate.total_queries == candidate.num_queries * candidate.epochs

    def test_full_finetune_pays_the_interconnect_tax(self):
        planner = ClusterPlanner(
            "blackmamba-2.8b", dataset="math14k", cache=SimulationCache()
        )
        plan = planner.plan(gpus=(A40,), providers=("cudo",), densities=(False,),
                            num_gpus=(8,))
        by_link = {c.scenario.interconnect_spec.name: c for c in plan.candidates}
        assert by_link["PCIe-Gen4"].dollars > by_link["NVLink"].dollars


class TestPlanCLI:
    def test_model_and_gpu_resolution(self):
        assert resolve_model_key("mixtral") == "mixtral-8x7b"
        assert resolve_model_key("BlackMamba") == "blackmamba-2.8b"
        assert resolve_model_key("mixtral-tiny") == "mixtral-tiny"
        assert resolve_gpu_name("a40") == "A40"
        assert resolve_gpu_name("h100") == "H100-80GB"
        with pytest.raises(KeyError):
            resolve_gpu_name("a100")  # ambiguous: 40GB vs 80GB
        with pytest.raises(KeyError):
            resolve_model_key("gpt2")

    def test_acceptance_command_emits_deterministic_json(self, capsys):
        argv = ["--model", "mixtral", "--gpu", "a40", "--deadline-hours", "24", "--json"]
        assert plan_main(argv) == 0
        first = capsys.readouterr().out
        assert plan_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["model"] == "mixtral-8x7b"
        assert payload["deadline_hours"] == 24.0
        assert payload["frontier"]
        assert payload["cheapest"] is not None
        assert payload["cheapest"]["hours"] <= 24.0
        hours = [c["hours"] for c in payload["frontier"]]
        assert hours == sorted(hours)  # frontier is fastest-first

    def test_text_output_names_recommendation(self, capsys):
        assert plan_main(["--model", "mixtral", "--gpu", "a40",
                          "--deadline-hours", "24"]) == 0
        out = capsys.readouterr().out
        assert "cheapest feasible:" in out
        assert "pareto-optimal configuration" in out

    def test_bad_model_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "gpt2"])
        assert "unknown model" in capsys.readouterr().err

    def test_bad_num_gpus_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--num-gpus", "0"])
        assert "cluster sizes must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--num-gpus", "two"])
        assert "invalid literal" in capsys.readouterr().err


class TestPlanCLIValidation:
    """The CLI rejects what the service rejects: each value is a
    ``parser.error`` naming the flag, never a plan or a traceback."""

    @pytest.mark.parametrize("flag,value", [
        ("--deadline-hours", "nan"),
        ("--epochs", "0"),
        ("--epochs", "-3"),
        ("--num-queries", "0"),
        ("--budget", "0"),
        ("--batch-size", "0"),
        ("--batch-size", "-4"),
        ("--seq-len", "-5"),
        ("--dataset", "nosuch"),
    ])
    def test_out_of_range_flag_is_a_parser_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            plan_main(["--model", "mixtral", "--gpu", "a40", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_unknown_dataset_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--dataset", "nosuch"])
        err = capsys.readouterr().err
        assert "--dataset" in err and "math14k" in err and "openorca" in err

    @pytest.mark.parametrize("extra,duplicated", [
        (["--gpu", "a40"], ["--gpu", "a40", "--gpu", "A40"]),
        (["--gpu", "a40", "--batch-size", "1"],
         ["--gpu", "a40", "--batch-size", "1", "--batch-size", "1"]),
    ])
    def test_duplicate_list_entries_plan_once(self, capsys, extra, duplicated):
        argv = ["--model", "mixtral", "--num-gpus", "1", "--json"]
        assert plan_main(argv + extra) == 0
        single = capsys.readouterr().out
        assert plan_main(argv + duplicated) == 0
        assert capsys.readouterr().out == single


class TestClusterExperiment:
    def test_experiment_registered_and_runs(self):
        from repro.experiments import ALL_EXPERIMENTS, cluster_plan

        assert ALL_EXPERIMENTS["cluster"] is cluster_plan
        result = cluster_plan.run(cache=SimulationCache())
        measured = result.measured_dict()
        assert measured["frontier_size"] >= 1
        assert measured["qlora_x8_nvlink_efficiency"] > 0.97
        assert measured["x8_cost_premium_over_x1"] == pytest.approx(1.0, rel=0.05)
