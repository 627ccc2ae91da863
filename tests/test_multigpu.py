"""Tests for the multi-GPU extension (paper future work): collectives and
the one trace-to-cluster estimate."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cluster import ClusterScenario
from repro.cluster.planner import ClusterCandidate
from repro.core.cost import wall_clock_hours
from repro.gpu import (
    A40,
    GPUSimulator,
    H100,
    INTERCONNECTS,
    Interconnect,
    MultiGPUEstimate,
    NVLINK,
    PCIE_GEN4,
    estimate_from_trace,
    get_interconnect,
    trainable_gradient_bytes,
)
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B


def data_parallel(cfg, batch, seq_len, num_gpus, gpu=A40, link=NVLINK):
    """Plain data-parallel estimate over a freshly simulated sparse trace."""
    trace = GPUSimulator(gpu).simulate_step(cfg, batch, seq_len, dense=False)
    return estimate_from_trace(cfg, trace, num_gpus, link)


class TestInterconnect:
    def test_single_gpu_no_allreduce(self):
        for link in INTERCONNECTS.values():
            assert link.allreduce_seconds(1e9, 1) == 0.0
            assert link.allreduce_seconds(0.0, 1) == 0.0

    def test_zero_payload_pays_only_latency(self):
        link = Interconnect("test", bandwidth_gbs=100.0, latency_us=15.0)
        for n in (2, 4, 8):
            assert link.allreduce_seconds(0.0, n) == pytest.approx(
                2 * (n - 1) * 15.0 * 1e-6
            )

    def test_latency_term_scales_linearly_with_ring_hops(self):
        link = Interconnect("test", bandwidth_gbs=100.0, latency_us=20.0)
        base = link.allreduce_seconds(0.0, 2)  # one hop pair
        assert link.allreduce_seconds(0.0, 8) == pytest.approx(7 * base)

    def test_wire_term_matches_ring_formula(self):
        link = Interconnect("test", bandwidth_gbs=10.0, latency_us=0.0)
        payload = 5e9
        for n in (2, 3, 8):
            expected = 2.0 * (n - 1) / n * payload / (10.0 * 1e9)
            assert link.allreduce_seconds(payload, n) == pytest.approx(expected)

    def test_wire_term_saturates_latency_term_does_not(self):
        """2(N-1)/N -> 2 as N grows, but the latency term keeps growing:
        at large N a latency-heavy link is dominated by hops."""
        link = Interconnect("test", bandwidth_gbs=100.0, latency_us=50.0)
        wire_only = Interconnect("test0", bandwidth_gbs=100.0, latency_us=0.0)
        assert wire_only.allreduce_seconds(1e9, 1024) < 2.0 * 1e9 / (100.0 * 1e9)
        hops = link.allreduce_seconds(1e9, 1024) - wire_only.allreduce_seconds(1e9, 1024)
        assert hops == pytest.approx(2 * 1023 * 50.0 * 1e-6)

    def test_ring_traffic_grows_with_gpus(self):
        two = NVLINK.allreduce_seconds(1e9, 2)
        eight = NVLINK.allreduce_seconds(1e9, 8)
        assert eight > two

    def test_bandwidth_ordering(self):
        assert PCIE_GEN4.allreduce_seconds(1e9, 4) > NVLINK.allreduce_seconds(1e9, 4)


class TestInterconnectRegistry:
    def test_keys_and_display_names_resolve(self):
        assert get_interconnect("nvlink") is NVLINK
        assert get_interconnect("NVLink") is NVLINK
        assert get_interconnect("pcie-gen4") is PCIE_GEN4
        assert get_interconnect("PCIe-Gen4") is PCIE_GEN4

    def test_instances_pass_through(self):
        custom = Interconnect("InfiniBand", bandwidth_gbs=50.0)
        assert get_interconnect(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_interconnect("token-ring")


class TestGradientPayload:
    def test_qlora_payload_tiny(self):
        mixtral = trainable_gradient_bytes(MIXTRAL_8X7B)
        blackmamba = trainable_gradient_bytes(BLACKMAMBA_2_8B)
        assert mixtral < blackmamba / 5  # adapters vs full model

    def test_blackmamba_payload_matches_params(self):
        from repro.models import param_breakdown

        assert trainable_gradient_bytes(BLACKMAMBA_2_8B) == pytest.approx(
            2 * param_breakdown(BLACKMAMBA_2_8B).total
        )


class TestDataParallelSimulator:
    """Plain data parallelism over simulated per-device traces."""

    def test_single_gpu_matches_base_simulator(self):
        estimate = data_parallel(MIXTRAL_8X7B, 4, 128, num_gpus=1)
        assert estimate.scaling_efficiency == pytest.approx(1.0)
        assert estimate.allreduce_seconds == 0.0

    def test_throughput_grows_with_gpus(self):
        previous = 0.0
        for n in (1, 2, 4, 8):
            estimate = data_parallel(MIXTRAL_8X7B, 4, 128, num_gpus=n)
            assert estimate.queries_per_second > previous
            previous = estimate.queries_per_second

    def test_efficiency_monotone_nonincreasing(self):
        efficiencies = [
            data_parallel(BLACKMAMBA_2_8B, 6, 128, num_gpus=n, link=PCIE_GEN4).scaling_efficiency
            for n in range(1, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))
        assert all(0 < e <= 1.0 + 1e-9 for e in efficiencies)

    def test_qlora_scales_better_than_full_ft(self):
        """Headline of the extension: adapter-only sync is near-free."""
        mixtral = data_parallel(MIXTRAL_8X7B, 4, 128, num_gpus=8, link=PCIE_GEN4)
        blackmamba = data_parallel(BLACKMAMBA_2_8B, 6, 128, num_gpus=8, link=PCIE_GEN4)
        assert mixtral.scaling_efficiency > blackmamba.scaling_efficiency
        assert mixtral.scaling_efficiency > 0.97

    def test_nvlink_beats_pcie_for_full_ft(self):
        fast = data_parallel(BLACKMAMBA_2_8B, 6, 128, num_gpus=8, link=NVLINK)
        slow = data_parallel(BLACKMAMBA_2_8B, 6, 128, num_gpus=8, link=PCIE_GEN4)
        assert fast.queries_per_second > slow.queries_per_second

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            data_parallel(MIXTRAL_8X7B, 4, 128, num_gpus=0)

    def test_estimate_from_trace_matches_simulator(self):
        """On one GPU the estimate is the single-GPU simulator's
        throughput, exactly."""
        for cfg, batch in ((MIXTRAL_8X7B, 4), (BLACKMAMBA_2_8B, 6)):
            for gpu in (A40, H100):
                trace = GPUSimulator(gpu).simulate_step(cfg, batch, 128, dense=False)
                for link in (NVLINK, PCIE_GEN4):
                    estimate = estimate_from_trace(cfg, trace, 1, link)
                    assert estimate.queries_per_second == trace.queries_per_second
                    assert estimate.scaling_efficiency == 1.0


def candidate(estimate, rate=2.10, num_queries=14000, epochs=10):
    point = ClusterScenario(
        model=MIXTRAL_8X7B, gpu="H100-80GB", batch_size=estimate.per_gpu_batch,
        seq_len=150, num_gpus=estimate.num_gpus,
    )
    return ClusterCandidate(
        scenario=point, provider="test", dollars_per_gpu_hour=rate,
        estimate=estimate, num_queries=num_queries, epochs=epochs,
    )


class TestMultiGPUCost:
    def test_wall_clock_shrinks_dollars_roughly_flat(self):
        """Perfect scaling keeps dollars constant; comm overhead adds a
        premium — multi-GPU buys time, not money."""
        one = data_parallel(MIXTRAL_8X7B, 17, 150, num_gpus=1, gpu=H100)
        four = data_parallel(MIXTRAL_8X7B, 17, 150, num_gpus=4, gpu=H100)
        assert candidate(four).dollars == pytest.approx(candidate(one).dollars, rel=0.1)
        assert candidate(four).hours < candidate(one).hours
        assert four.queries_per_second > 3 * one.queries_per_second

    def test_zero_throughput_infinite_cost(self):
        assert wall_clock_hours(10, 0.0) == float("inf")
        estimate = MultiGPUEstimate(1, 1, 1.0, 0.0, 0.0, 0.0)
        assert candidate(estimate, rate=1.0, num_queries=10, epochs=1).dollars == float("inf")


#: Every ``MultiGPUEstimate`` field of a cluster grid, recorded from the
#: per-strategy estimates the one formula replaced. Both models x math14k
#: x A40 and H100-80GB x 1/2/4/8 GPUs x both links x ``parallelism="auto"``
#: x grad-accum 1 and 4, keyed by scenario label. The plain data-parallel
#: ``k == 1`` cells pin the two special cases of the formula: computing
#: their step from ``micro + optimizer`` moves 5 of the 64 plain-DP cells,
#: and ``compute / step`` efficiency moves 23.
ESTIMATE_FIXTURE = Path(__file__).parent / "data" / "golden_cluster_estimates.json"


def cluster_estimates():
    """The fixture grid's estimates, as they reach a cluster plan."""
    from repro.cluster import ClusterPlanner
    from repro.scenarios import SimulationCache

    estimates = {}
    for model in ("mixtral-8x7b", "blackmamba-2.8b"):
        planner = ClusterPlanner(model, dataset="math14k", cache=SimulationCache())
        sweep = planner.sweep(
            gpus=("A40", "H100-80GB"), num_gpus=(1, 2, 4, 8),
            interconnects=("nvlink", "pcie-gen4"), parallelism="auto",
            max_tp=8, grad_accums=(1, 4),
        )
        for candidate in sweep.candidates:
            label = candidate.scenario.label(include_gpu=True)
            estimates[label] = dataclasses.asdict(candidate.estimate)
    return dict(sorted(estimates.items()))


def test_cluster_estimates_match_fixture_exactly():
    golden = json.loads(ESTIMATE_FIXTURE.read_text())
    measured = cluster_estimates()
    assert list(measured) == list(golden)
    for label, fields in golden.items():
        assert measured[label] == fields, label
