"""Tests for the parallelism-strategy layer: collectives cost model,
strategy classes, sharded workload/memory, planner integration and the
Daly checkpoint optimum."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import ClusterPlanner, ClusterScenario
from repro.cluster.plan import main as plan_main
from repro.gpu import (
    A40,
    DATA_PARALLEL,
    DataParallel,
    GPUSimulator,
    Interconnect,
    NVLINK,
    PCIE_GEN4,
    ParallelismStrategy,
    TensorParallel,
    estimate_from_trace,
    get_strategy,
    tp_degrees,
    trainable_gradient_bytes,
)
from repro.memory.estimator import EFFECTIVE_SEQ_LEN, max_batch_size, memory_breakdown
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from repro.scenarios import Scenario, SimulationCache
from repro.spot import RiskAdjustedPlanner, optimal_interval_minutes
from repro.spot.checkpoint import CheckpointPolicy, checkpoint_state_gb, restart_state_gb

GOLDEN_DIR = Path(__file__).parent / "data"

COLLECTIVES = ("allreduce_seconds", "allgather_seconds", "reducescatter_seconds")


class TestCollectives:
    link = Interconnect("test", bandwidth_gbs=50.0, latency_us=10.0)

    def test_single_gpu_is_free(self):
        """num_gpus <= 1 means no communication at all."""
        for name in COLLECTIVES:
            collective = getattr(self.link, name)
            assert collective(1e9, 1) == 0.0
            assert collective(0.0, 1) == 0.0

    def test_monotone_in_payload(self):
        for name in COLLECTIVES:
            collective = getattr(self.link, name)
            times = [collective(payload, 4) for payload in (1e6, 1e8, 1e9, 1e10)]
            assert times == sorted(times)
            assert times[0] < times[-1]

    def test_monotone_in_gpu_count(self):
        for name in COLLECTIVES:
            collective = getattr(self.link, name)
            times = [collective(1e9, n) for n in (2, 3, 4, 8, 16)]
            assert times == sorted(times)
            assert times[0] < times[-1]

    def test_allreduce_composes_from_halves(self):
        """A ring all-reduce is a reduce-scatter plus an all-gather."""
        for n in (2, 4, 8):
            assert self.link.reducescatter_seconds(1e9, n) + self.link.allgather_seconds(
                1e9, n
            ) == pytest.approx(self.link.allreduce_seconds(1e9, n))

    def test_half_collectives_cost_half_the_wire(self):
        wire_only = Interconnect("w", bandwidth_gbs=50.0, latency_us=0.0)
        for n in (2, 8):
            assert wire_only.allgather_seconds(1e9, n) == pytest.approx(
                wire_only.allreduce_seconds(1e9, n) / 2
            )


class TestStrategyResolution:
    def test_spellings(self):
        assert get_strategy("dp") == DataParallel()
        assert get_strategy("DP") == DataParallel()
        assert get_strategy("tp4") == TensorParallel(degree=4)
        assert get_strategy("tp4-ga2") == TensorParallel(degree=4, grad_accum=2)
        assert get_strategy("dp-ga8") == DataParallel(grad_accum=8)
        # Degree 1 normalizes to data parallelism.
        assert get_strategy("tp1") == DataParallel()
        assert get_strategy("tp1-ga3") == DataParallel(grad_accum=3)

    def test_instances_pass_through(self):
        strategy = TensorParallel(degree=2)
        assert get_strategy(strategy) is strategy

    def test_spec_roundtrip(self):
        for spelling in ("dp", "tp2", "tp8-ga4", "dp-ga2"):
            assert get_strategy(spelling).spec() == spelling
            assert get_strategy(get_strategy(spelling).spec()) == get_strategy(spelling)

    def test_invalid_spellings(self):
        for bad in ("token-ring", "tp0", "tp-2", "ga4-tp2", "tp4-ga0"):
            with pytest.raises(KeyError):
                get_strategy(bad)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DataParallel(grad_accum=0)
        with pytest.raises(ValueError):
            TensorParallel(degree=1)

    def test_fits_and_validate(self):
        tp4 = TensorParallel(degree=4)
        assert tp4.fits(4) and tp4.fits(8)
        assert not tp4.fits(2) and not tp4.fits(6)
        with pytest.raises(ValueError):
            tp4.validate(6)
        assert DataParallel().fits(1)

    def test_tp_degrees_are_powers_of_two(self):
        assert tp_degrees(8) == (2, 4, 8)
        assert tp_degrees(6) == (2, 4)
        assert tp_degrees(1) == ()
        with pytest.raises(ValueError):
            tp_degrees(0)


class TestShardedWorkloadAndMemory:
    def test_per_device_step_shrinks_with_degree(self):
        sim = GPUSimulator(A40)
        times = [
            sim.simulate_step(MIXTRAL_8X7B, 4, 128, tensor_parallel=t).total_seconds
            for t in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)
        assert times[-1] < times[0]

    def test_degree_one_is_the_plain_workload(self):
        sim = GPUSimulator(A40)
        assert (
            sim.simulate_step(MIXTRAL_8X7B, 2, 128, tensor_parallel=1).total_seconds
            == sim.simulate_step(MIXTRAL_8X7B, 2, 128).total_seconds
        )

    def test_sharded_memory_divides_state_not_framework(self):
        full = memory_breakdown(MIXTRAL_8X7B, 185, False)
        shard = memory_breakdown(MIXTRAL_8X7B, 185, False, tensor_parallel=4)
        assert shard.weights_gb == pytest.approx(full.weights_gb / 4)
        assert shard.adapter_gb == pytest.approx(full.adapter_gb / 4)
        assert shard.optimizer_gb == pytest.approx(full.optimizer_gb / 4)
        assert shard.framework_gb == full.framework_gb
        assert shard.activation_gb_per_query < full.activation_gb_per_query

    def test_max_batch_size_grows_with_degree(self):
        sizes = [
            max_batch_size(MIXTRAL_8X7B, A40, 185, True, tensor_parallel=t)
            for t in (1, 2, 4, 8)
        ]
        assert sizes == sorted(sizes)

    def test_tp_fits_what_dp_cannot(self):
        """The headline cell: dense Mixtral at the HellaSwag padded
        length fits no single A40 but fits a TP-2 shard."""
        seq = EFFECTIVE_SEQ_LEN["hellaswag"]
        assert max_batch_size(MIXTRAL_8X7B, A40, seq, True) == 0
        assert max_batch_size(MIXTRAL_8X7B, A40, seq, True, tensor_parallel=2) >= 1


class TestStrategyEstimates:
    def _trace(self, cfg=MIXTRAL_8X7B, batch=4, tensor_parallel=1):
        return GPUSimulator(A40).simulate_step(
            cfg, batch, 128, tensor_parallel=tensor_parallel
        )

    def test_default_dp_is_bit_identical_to_legacy(self):
        trace = self._trace()
        legacy = estimate_from_trace(MIXTRAL_8X7B, trace, 8, NVLINK)
        via_strategy = estimate_from_trace(
            MIXTRAL_8X7B, trace, 8, NVLINK, strategy=DATA_PARALLEL
        )
        assert via_strategy == legacy
        assert estimate_from_trace(
            MIXTRAL_8X7B, trace, 8, NVLINK, strategy=DataParallel()
        ) == legacy
        comm = NVLINK.allreduce_seconds(trainable_gradient_bytes(MIXTRAL_8X7B), 8)
        assert legacy.step_seconds == trace.total_seconds + comm
        assert legacy.tp_comm_seconds == 0.0

    def test_grad_accum_amortizes_sync_and_optimizer(self):
        trace = self._trace(BLACKMAMBA_2_8B, batch=6)
        base = estimate_from_trace(BLACKMAMBA_2_8B, trace, 8, PCIE_GEN4)
        accum = estimate_from_trace(
            BLACKMAMBA_2_8B, trace, 8, PCIE_GEN4, strategy=DataParallel(grad_accum=8)
        )
        # Full-model gradients over PCIe are expensive; syncing once per
        # 8 micro-batches beats syncing every micro-batch.
        assert accum.queries_per_second > base.queries_per_second
        assert accum.grad_accum == 8
        assert accum.allreduce_seconds == base.allreduce_seconds

    def test_tensor_parallel_estimate_shape(self):
        strategy = TensorParallel(degree=4)
        trace = self._trace(tensor_parallel=4)
        estimate = estimate_from_trace(MIXTRAL_8X7B, trace, 8, NVLINK, strategy=strategy)
        assert estimate.tensor_parallel == 4
        assert estimate.data_parallel == 2
        assert estimate.tp_comm_seconds > 0
        assert 0 < estimate.scaling_efficiency <= 1.0
        assert estimate.queries_per_second > 0
        with pytest.raises(ValueError):
            estimate_from_trace(MIXTRAL_8X7B, trace, 6, NVLINK, strategy=strategy)

    def test_tp_comm_cheaper_on_faster_links(self):
        strategy = TensorParallel(degree=4)
        trace = self._trace(tensor_parallel=4)
        fast = estimate_from_trace(MIXTRAL_8X7B, trace, 4, NVLINK, strategy=strategy)
        slow = estimate_from_trace(MIXTRAL_8X7B, trace, 4, PCIE_GEN4, strategy=strategy)
        assert fast.tp_comm_seconds < slow.tp_comm_seconds
        assert fast.queries_per_second > slow.queries_per_second

    def test_global_batch_size(self):
        assert DataParallel().global_batch_size(8, 4) == 32
        assert DataParallel(grad_accum=4).global_batch_size(8, 4) == 128
        assert TensorParallel(degree=4).global_batch_size(8, 4) == 8
        assert TensorParallel(degree=4, grad_accum=2).global_batch_size(8, 4) == 16


class TestScenarioStrategyAxis:
    def scenario(self, n=8, strategy="dp", **kw):
        defaults = dict(model=MIXTRAL_8X7B, gpu="A40", batch_size=4, seq_len=128)
        defaults.update(kw)
        return ClusterScenario(num_gpus=n, strategy=strategy, **defaults)

    def test_dp_key_unchanged_from_plain_scenario(self):
        plain = Scenario(model=MIXTRAL_8X7B, gpu="A40", batch_size=4, seq_len=128)
        assert self.scenario().key() == plain.key()
        assert self.scenario().digest() == plain.digest()

    def test_grad_accum_shares_the_replica_trace(self):
        cache = SimulationCache()
        for accum in (1, 2, 8):
            cache.simulate(self.scenario(strategy=DataParallel(grad_accum=accum)))
        assert cache.stats().misses == 1

    def test_tp_degree_keys_its_own_trace(self):
        keys = {self.scenario(strategy=s).key() for s in ("dp", "tp2", "tp4", "tp8")}
        assert len(keys) == 4
        digests = {self.scenario(strategy=s).digest() for s in ("dp", "tp2", "tp8")}
        assert len(digests) == 3
        assert "tensor_parallel" in self.scenario(strategy="tp4").canonical_text()

    def test_tp_cluster_sizes_share_one_sharded_trace(self):
        cache = SimulationCache()
        for n in (2, 4, 8):
            cache.simulate(self.scenario(n=n, strategy="tp2"))
        assert cache.stats().misses == 1

    def test_strategy_normalized_and_validated(self):
        assert self.scenario(strategy="tp4").strategy_spec == TensorParallel(degree=4)
        with pytest.raises(ValueError):
            self.scenario(n=6, strategy="tp4")
        with pytest.raises(KeyError):
            self.scenario(strategy="token-ring")

    def test_conflicting_explicit_override_raises(self):
        """The override is strategy-owned: a conflict errors instead of
        silently handing back unsharded numbers."""
        with pytest.raises(ValueError, match="strategy-owned"):
            self.scenario(strategy="dp", overrides={"tensor_parallel": 4})
        with pytest.raises(ValueError, match="strategy-owned"):
            self.scenario(strategy="tp2", overrides={"tensor_parallel": 4})
        # A matching override (a dataclasses.replace copy carrying the
        # injected entry) normalizes instead of raising.
        assert self.scenario(
            strategy="tp4", overrides={"tensor_parallel": 4}
        ) == self.scenario(strategy="tp4")

    def test_with_strategy_reconciles_the_override(self):
        tp = self.scenario(strategy="tp4")
        assert dict(tp.overrides)["tensor_parallel"] == 4
        back = tp.with_(strategy="dp")
        assert "tensor_parallel" not in dict(back.overrides)
        assert back.key() == self.scenario().key()
        retargeted = tp.with_(strategy="tp2")
        assert dict(retargeted.overrides)["tensor_parallel"] == 2

    def test_labels(self):
        assert self.scenario().label(include_gpu=True) == "mixtral_S4_A40_x8_NVLink"
        assert (
            self.scenario(strategy="tp4").label(include_gpu=True)
            == "mixtral_S4_A40_x8_tp4_NVLink"
        )
        assert self.scenario(strategy="tp4-ga2").label() == "mixtral_S4_x8_tp4-ga2_NVLink"

    def test_estimate_uses_the_strategy(self):
        point = self.scenario(strategy="tp4")
        estimate = estimate_from_trace(
            MIXTRAL_8X7B, SimulationCache().simulate(point), point.num_gpus,
            point.interconnect_spec, strategy=point.strategy_spec,
        )
        assert estimate.tensor_parallel == 4
        assert estimate.data_parallel == 2

class TestPlannerParallelism:
    def test_dp_plan_byte_identical_to_pre_refactor_golden(self, capsys):
        """The hard acceptance: with (and without) --parallelism dp the
        plan JSON matches the output captured before the strategy layer
        existed, byte for byte."""
        cases = [
            (["--model", "mixtral", "--gpu", "a40", "--deadline-hours", "24",
              "--json"], "golden_cluster_plan_mixtral_a40.json"),
            (["--model", "mixtral", "--density", "dense", "--gpu", "a40",
              "--json"], "golden_cluster_plan_mixtral_a40_dense.json"),
        ]
        for argv, golden in cases:
            golden_text = (GOLDEN_DIR / golden).read_text()
            assert plan_main(argv) == 0
            assert capsys.readouterr().out == golden_text
            assert plan_main(argv + ["--parallelism", "dp"]) == 0
            assert capsys.readouterr().out == golden_text

    def test_auto_prices_the_cell_dp_skips(self):
        """Acceptance: the dense-Mixtral-on-A40 HellaSwag cell is skipped
        under pure DP and priced at TP degrees under auto."""
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="hellaswag", cache=cache)
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(True,))
        dp = planner.plan(parallelism="dp", **kwargs)
        assert not dp.candidates
        assert dp.skipped == [
            "mixtral-8x7b (dense) does not fit on A40 at seq_len=280"
        ]
        auto = planner.plan(parallelism="auto", **kwargs)
        assert auto.candidates
        assert not auto.skipped
        assert all(c.scenario.tensor_parallel >= 2 for c in auto.candidates)
        payload = auto.to_payload()
        assert payload["cheapest"]["tensor_parallel"] >= 2
        assert payload["cheapest"]["parallelism"].startswith("tp")

    def test_auto_acceptance_command_prices_tp_candidates(self, capsys):
        argv = ["--model", "mixtral", "--density", "dense", "--gpu", "a40",
                "--parallelism", "auto", "--json"]
        assert plan_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        tp_entries = [
            c for c in payload["frontier"]
            if c.get("tensor_parallel", 1) > 1 and c["num_gpus"] > 1
        ]
        assert tp_entries  # multi-GPU tensor-parallel candidates priced

    def test_skip_reason_when_no_tp_degree_fits(self):
        """Cells no enumerated degree can fit stay skipped, with a reason
        naming the TP search."""
        tiny = replace(A40, name="A40", memory_gb=12.0)
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k",
                                 cache=SimulationCache())
        plan = planner.plan(gpus=(tiny,), providers=("cudo",),
                            densities=(True,), parallelism="auto")
        assert not plan.candidates
        assert plan.skipped == [
            "mixtral-8x7b (dense) does not fit on A40 at seq_len=185 "
            "at any tensor-parallel degree <= 8"
        ]

    def test_skip_reason_when_no_size_hosts_a_fitting_degree(self):
        """Memory fits at TP degrees but the requested cluster sizes
        cannot host any of them — the reason points at the size axis,
        not the batch axis."""
        planner = ClusterPlanner("mixtral-8x7b", dataset="hellaswag",
                                 cache=SimulationCache())
        plan = planner.plan(gpus=(A40,), providers=("cudo",),
                            densities=(True,), parallelism="auto",
                            num_gpus=(1,))
        assert not plan.candidates
        assert len(plan.skipped) == 1
        assert "no requested cluster size" in plan.skipped[0]
        assert "batch size" not in plan.skipped[0]

    def test_warm_strategy_sweep_adds_zero_simulations(self):
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="hellaswag", cache=cache)
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(True,),
                      parallelism="auto")
        cold = planner.plan(**kwargs)
        simulations = cache.stats().simulations
        warm = planner.plan(**kwargs)
        assert cache.stats().simulations == simulations
        assert warm.to_payload() == cold.to_payload()

    def test_cold_auto_plan_simulates_one_trace_per_tp_degree(self):
        """Cluster sizes, interconnects and accumulation depths all share
        one sharded per-device trace per TP degree: the cold auto plan
        simulates exactly one per degree it prices, and a fixed-degree
        sweep over new sizes, links and depths afterwards simulates none."""
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="hellaswag", cache=cache)
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(True,))
        cold = planner.plan(parallelism="auto", **kwargs)
        degrees = {c.scenario.tensor_parallel for c in cold.candidates}
        simulations = cache.stats().simulations
        assert simulations == len(degrees) > 0
        warm = planner.plan(parallelism="tp", max_tp=max(degrees),
                            grad_accums=(1, 2, 4), **kwargs)
        assert cache.stats().simulations == simulations
        assert warm.candidates

    def test_grad_accum_axis_shares_traces(self):
        cache = SimulationCache()
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache)
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(False,))
        planner.plan(grad_accums=(1,), **kwargs)
        misses = cache.stats().misses
        plan = planner.plan(grad_accums=(1, 4), **kwargs)
        # The depth axis is free: the only new miss is the new sweep's.
        assert cache.stats().misses == misses + 1
        accums = {c.scenario.grad_accum for c in plan.candidates}
        assert accums == {1, 4}
        labeled = [c for c in plan.candidates if c.scenario.grad_accum == 4]
        assert all("ga4" in c.label for c in labeled)

    def test_parallelism_validation(self):
        planner = ClusterPlanner("mixtral-8x7b", dataset="math14k",
                                 cache=SimulationCache())
        with pytest.raises(ValueError):
            planner.plan(parallelism="pipeline")
        with pytest.raises(ValueError):
            planner.plan(parallelism="tp", max_tp=1)
        with pytest.raises(ValueError):
            planner.plan(grad_accums=())

    def test_cli_flag_errors(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--parallelism", "tp", "--max-tp", "1"])
        assert "--max-tp" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--grad-accum", "0"])
        assert "gradient-accumulation" in capsys.readouterr().err


class TestDalyCadence:
    def test_closed_form(self):
        # sqrt(2 * 8 h * 1 h of writing) = 4 h = 240 min.
        assert optimal_interval_minutes(8.0, 3600.0) == pytest.approx(240.0)
        # Quadrupling MTBP doubles the cadence.
        assert optimal_interval_minutes(32.0, 3600.0) == pytest.approx(480.0)

    def test_edges(self):
        assert math.isinf(optimal_interval_minutes(float("inf"), 10.0))
        assert optimal_interval_minutes(8.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            optimal_interval_minutes(0.0, 10.0)
        with pytest.raises(ValueError):
            optimal_interval_minutes(8.0, -1.0)

    def _plan(self, **planner_kw):
        planner = RiskAdjustedPlanner(
            "mixtral-8x7b", dataset="math14k", cache=SimulationCache(), **planner_kw
        )
        return planner.plan_spot(gpus=(A40,), providers=("cudo",),
                                 densities=(False,))

    def test_default_cadence_is_daly_per_candidate(self):
        plan = self._plan(mtbp_hours=8.0)
        spot = plan.spot_candidates
        assert spot
        write_seconds = checkpoint_state_gb(MIXTRAL_8X7B) / 1.0
        for c in spot:
            fleet_mtbp = 8.0 / c.scenario.num_gpus
            assert c.policy.interval_minutes == pytest.approx(
                optimal_interval_minutes(fleet_mtbp, write_seconds)
            )
        # Larger fleets preempt more often -> shorter optimal cadence.
        by_size = {c.scenario.num_gpus: c.policy.interval_minutes for c in spot}
        sizes = sorted(by_size)
        assert [by_size[n] for n in sizes] == sorted(
            (by_size[n] for n in sizes), reverse=True
        )

    def test_menu_still_overrides(self):
        plan = self._plan(checkpoint_minutes=(30.0,))
        assert plan.spot_candidates
        assert all(
            c.policy.interval_minutes == 30.0 for c in plan.spot_candidates
        )

    def test_daly_beats_the_old_menu_default(self):
        """The closed form is at least as good as the fixed 30-minute
        default on every candidate (that is what 'optimal' buys)."""
        daly = {c.base.label: c for c in self._plan().spot_candidates}
        menu = self._plan(checkpoint_minutes=(30.0,)).spot_candidates
        for c in menu:
            assert daly[c.base.label].expected_hours <= c.expected_hours + 1e-12


class TestShardedCheckpoint:
    def test_state_divides_with_degree(self):
        full = checkpoint_state_gb(MIXTRAL_8X7B)
        assert checkpoint_state_gb(MIXTRAL_8X7B, 4) == pytest.approx(full / 4)
        assert restart_state_gb(MIXTRAL_8X7B, 4) < restart_state_gb(MIXTRAL_8X7B)

    def test_policy_for_model_uses_the_shard(self):
        full = CheckpointPolicy.for_model(MIXTRAL_8X7B)
        shard = CheckpointPolicy.for_model(MIXTRAL_8X7B, tensor_parallel=4)
        assert shard.write_seconds == pytest.approx(full.write_seconds / 4)
        assert shard.restart_seconds < full.restart_seconds

    def test_risk_planner_derives_sharded_write_costs(self):
        """Satellite: under TP the spot tier's checkpoint costs come from
        the per-device sharded state, not the full model."""
        planner = RiskAdjustedPlanner(
            "mixtral-8x7b", dataset="hellaswag", cache=SimulationCache(),
            checkpoint_minutes=(30.0,),
        )
        plan = planner.plan_spot(gpus=(A40,), providers=("cudo",),
                                 densities=(True,), parallelism="auto")
        spot = plan.spot_candidates
        assert spot
        full_write = CheckpointPolicy.for_model(MIXTRAL_8X7B).write_seconds
        for c in spot:
            degree = c.scenario.tensor_parallel
            assert degree >= 2
            assert c.policy.write_seconds == pytest.approx(full_write / degree)
