"""Tests for the multi-GPU data-parallel extension (paper future work)."""

import pytest

from repro.gpu import (
    A40,
    DataParallelSimulator,
    H100,
    INTERCONNECTS,
    Interconnect,
    NVLINK,
    PCIE_GEN4,
    estimate_from_trace,
    get_interconnect,
    multi_gpu_cost_dollars,
    trainable_gradient_bytes,
)
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B


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
    def test_single_gpu_matches_base_simulator(self):
        sim = DataParallelSimulator(A40)
        estimate = sim.estimate(MIXTRAL_8X7B, 4, 128, num_gpus=1)
        assert estimate.scaling_efficiency == pytest.approx(1.0)
        assert estimate.allreduce_seconds == 0.0

    def test_throughput_grows_with_gpus(self):
        sim = DataParallelSimulator(A40)
        previous = 0.0
        for n in (1, 2, 4, 8):
            estimate = sim.estimate(MIXTRAL_8X7B, 4, 128, num_gpus=n)
            assert estimate.queries_per_second > previous
            previous = estimate.queries_per_second

    def test_efficiency_monotone_nonincreasing(self):
        sim = DataParallelSimulator(A40, interconnect=PCIE_GEN4)
        efficiencies = [
            sim.estimate(BLACKMAMBA_2_8B, 6, 128, num_gpus=n).scaling_efficiency
            for n in range(1, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))
        assert all(0 < e <= 1.0 + 1e-9 for e in efficiencies)

    def test_qlora_scales_better_than_full_ft(self):
        """Headline of the extension: adapter-only sync is near-free."""
        sim = DataParallelSimulator(A40, interconnect=PCIE_GEN4)
        mixtral = sim.estimate(MIXTRAL_8X7B, 4, 128, num_gpus=8)
        blackmamba = sim.estimate(BLACKMAMBA_2_8B, 6, 128, num_gpus=8)
        assert mixtral.scaling_efficiency > blackmamba.scaling_efficiency
        assert mixtral.scaling_efficiency > 0.97

    def test_nvlink_beats_pcie_for_full_ft(self):
        nvlink = DataParallelSimulator(A40, interconnect=NVLINK)
        pcie = DataParallelSimulator(A40, interconnect=PCIE_GEN4)
        fast = nvlink.estimate(BLACKMAMBA_2_8B, 6, 128, num_gpus=8)
        slow = pcie.estimate(BLACKMAMBA_2_8B, 6, 128, num_gpus=8)
        assert fast.queries_per_second > slow.queries_per_second

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            DataParallelSimulator(A40).estimate(MIXTRAL_8X7B, 4, 128, num_gpus=0)

    def test_estimate_from_trace_matches_simulator(self):
        """The trace-based entry point (what the cluster layer feeds with
        cached traces) is the same model as the simulator path."""
        from repro.gpu import GPUSimulator

        trace = GPUSimulator(A40).simulate_step(MIXTRAL_8X7B, 4, 128, dense=False)
        direct = estimate_from_trace(MIXTRAL_8X7B, trace, 4, PCIE_GEN4)
        via_sim = DataParallelSimulator(A40, interconnect=PCIE_GEN4).estimate(
            MIXTRAL_8X7B, 4, 128, num_gpus=4
        )
        assert direct == via_sim
        with pytest.raises(ValueError):
            estimate_from_trace(MIXTRAL_8X7B, trace, 0, PCIE_GEN4)


class TestMultiGPUCost:
    def test_wall_clock_shrinks_dollars_roughly_flat(self):
        """Perfect scaling keeps dollars constant; comm overhead adds a
        premium — multi-GPU buys time, not money."""
        sim = DataParallelSimulator(H100, interconnect=NVLINK)
        one = sim.estimate(MIXTRAL_8X7B, 17, 150, num_gpus=1)
        four = sim.estimate(MIXTRAL_8X7B, 17, 150, num_gpus=4)
        cost_one = multi_gpu_cost_dollars(one, 14000, 10, 2.10)
        cost_four = multi_gpu_cost_dollars(four, 14000, 10, 2.10)
        assert cost_four == pytest.approx(cost_one, rel=0.1)
        assert four.queries_per_second > 3 * one.queries_per_second

    def test_zero_throughput_infinite_cost(self):
        from repro.gpu.multigpu import MultiGPUEstimate

        estimate = MultiGPUEstimate(1, 1, 1.0, 0.0, 0.0, 0.0)
        assert multi_gpu_cost_dollars(estimate, 10, 1, 1.0) == float("inf")
