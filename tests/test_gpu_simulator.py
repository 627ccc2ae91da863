"""Tests for the step simulator and trace aggregations — the paper's
qualitative hardware findings must emerge from the model."""

import pytest

from repro.gpu import A40, GPUSimulator, H100, SoftwareOverhead
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B, param_breakdown


@pytest.fixture(scope="module")
def sim():
    return GPUSimulator(A40)


class TestTraceStructure:
    def test_stage_seconds_cover_total(self, sim):
        trace = sim.simulate_step(MIXTRAL_8X7B, 2, 128)
        stages = trace.stage_seconds()
        assert sum(stages.values()) == pytest.approx(trace.total_seconds, rel=1e-6)

    def test_layer_seconds_positive(self, sim):
        trace = sim.simulate_step(MIXTRAL_8X7B, 2, 128)
        layers = trace.layer_seconds()
        assert {"moe", "attention", "norm"} <= set(layers)
        assert all(v > 0 for v in layers.values())

    def test_kernel_seconds_by_name_per_layer_scaling(self, sim):
        trace = sim.simulate_step(MIXTRAL_8X7B, 2, 128)
        per_layer = trace.kernel_seconds_by_name(layer="moe", per_layer=True)
        total = trace.kernel_seconds_by_name(layer="moe", per_layer=False)
        ratio = total["matmul(w1)"] / per_layer["matmul(w1)"]
        assert ratio == pytest.approx(MIXTRAL_8X7B.num_layers, rel=1e-9)

    def test_summary_string(self, sim):
        text = sim.simulate_step(MIXTRAL_8X7B, 2, 128, label="demo").summary()
        assert "demo" in text and "MoE share" in text

    def test_throughput_sweep(self, sim):
        for batch in (1, 2, 4):
            trace = sim.simulate_step(MIXTRAL_8X7B, batch, 128)
            assert sim.throughput(MIXTRAL_8X7B, batch, 128) == trace.queries_per_second

    def test_custom_overheads(self):
        fast = GPUSimulator(A40, overheads={"mixtral": SoftwareOverhead(0, 0, 0)})
        slow = GPUSimulator(A40, overheads={"mixtral": SoftwareOverhead(1.0, 0, 0)})
        assert (
            slow.simulate_step(MIXTRAL_8X7B, 1, 128).total_seconds
            > fast.simulate_step(MIXTRAL_8X7B, 1, 128).total_seconds
        )

    def test_unsupported_config_type(self, sim):
        with pytest.raises(TypeError):
            sim.simulate_step(object(), 1, 128)


class TestPaperFindings:
    """Each test pins one qualitative claim from the paper's Section IV."""

    def test_moe_layer_dominates(self, sim):
        """Fig. 5: MoE is the costliest layer (~85% on average)."""
        for cfg, batch in ((MIXTRAL_8X7B, 10), (BLACKMAMBA_2_8B, 30)):
            trace = sim.simulate_step(cfg, batch, 128, dense=True)
            assert trace.moe_fraction() > 0.5
        mixtral = sim.simulate_step(MIXTRAL_8X7B, 10, 128, dense=True)
        assert mixtral.moe_fraction() > 0.85

    def test_backward_exceeds_forward(self, sim):
        """Fig. 4: gradient work + recomputation make backward the bigger stage."""
        for cfg in (MIXTRAL_8X7B, BLACKMAMBA_2_8B):
            stages = sim.simulate_step(cfg, 4, 128).stage_seconds()
            assert stages["backward"] > stages["forward"]

    def test_checkpointing_recompute_costs_backward_time(self, sim):
        """Section IV: checkpointing in Mixtral saves memory but slows the
        backward stage, which recomputes roughly one extra forward."""
        with_ck = sim.simulate_step(MIXTRAL_8X7B, 4, 128, dense=False, checkpointing=True)
        without = sim.simulate_step(MIXTRAL_8X7B, 4, 128, dense=False, checkpointing=False)
        ratio = with_ck.stage_seconds()["backward"] / without.stage_seconds()["backward"]
        assert 1.3 < ratio < 2.5

    def test_quantization_trades_step_time_for_memory(self, sim):
        """NF4 dequant and slower GEMMs cost step time at small and larger
        batches, but fp16 Mixtral weights do not fit the A40 at all."""
        for batch in (1, 8):
            # Both arms train LoRA adapters only; the knob is weight storage.
            nf4 = sim.simulate_step(MIXTRAL_8X7B, batch, 128, dense=False, quantized=True, lora=True)
            fp16 = sim.simulate_step(MIXTRAL_8X7B, batch, 128, dense=False, quantized=False, lora=True)
            assert nf4.total_seconds > fp16.total_seconds, batch
        assert param_breakdown(MIXTRAL_8X7B).total * 2 / 1e9 > A40.memory_gb

    def test_optimizer_share_full_ft_vs_lora(self, sim):
        """Fig. 4: optimizer stage huge for BlackMamba (~53% at bsz 1),
        negligible for Mixtral QLoRA."""
        mamba = sim.simulate_step(BLACKMAMBA_2_8B, 1, 128, dense=False).stage_seconds()
        mamba_share = mamba["optimizer"] / sum(mamba.values())
        assert 0.35 < mamba_share < 0.7
        mixtral = sim.simulate_step(MIXTRAL_8X7B, 1, 128, dense=False).stage_seconds()
        assert mixtral["optimizer"] / sum(mixtral.values()) < 0.05

    def test_optimizer_time_batch_independent(self, sim):
        """Optimizer cost depends only on trainable parameter count."""
        t1 = sim.simulate_step(BLACKMAMBA_2_8B, 1, 128).stage_seconds()["optimizer"]
        t30 = sim.simulate_step(BLACKMAMBA_2_8B, 30, 128).stage_seconds()["optimizer"]
        assert t30 == pytest.approx(t1, rel=1e-6)

    def test_sparse_beats_dense_throughput_same_batch(self, sim):
        """Takeaway 4 / Fig. 8: sparse > dense at equal batch size."""
        for cfg in (MIXTRAL_8X7B, BLACKMAMBA_2_8B):
            sparse = sim.throughput(cfg, 2, 128, dense=False)
            dense = sim.throughput(cfg, 2, 128, dense=True)
            assert sparse > dense

    def test_throughput_sublinear_in_batch(self, sim):
        """Fig. 8: 8x batch gives less than 8x throughput."""
        t1 = sim.throughput(MIXTRAL_8X7B, 1, 79, dense=False)
        t8 = sim.throughput(MIXTRAL_8X7B, 8, 79, dense=False)
        assert t8 > 2 * t1
        assert t8 < 8 * t1

    def test_throughput_monotone_in_batch(self, sim):
        previous = 0.0
        for batch in (1, 2, 4, 8, 16, 32):
            current = sim.throughput(MIXTRAL_8X7B, batch, 128, dense=False)
            assert current > previous
            previous = current

    def test_blackmamba_much_faster_than_mixtral(self, sim):
        """Fig. 8: the 2.8B model is an order of magnitude faster."""
        assert sim.throughput(BLACKMAMBA_2_8B, 1, 79) > 4 * sim.throughput(MIXTRAL_8X7B, 1, 79)

    def test_h100_faster_than_a40(self):
        a40 = GPUSimulator(A40).throughput(MIXTRAL_8X7B, 8, 128, dense=False)
        h100 = GPUSimulator(H100).throughput(MIXTRAL_8X7B, 8, 128, dense=False)
        assert h100 > 1.3 * a40

    def test_sm_utilization_rises_with_batch(self, sim):
        """Fig. 9: more parallelism -> higher SM utilization."""
        tw = [
            sim.simulate_step(MIXTRAL_8X7B, b, 128, dense=False).time_weighted_sm("moe")
            for b in (1, 10, 32)
        ]
        assert tw == sorted(tw)

    def test_sparse_lower_sm_than_dense_same_batch(self, sim):
        """Fig. 9 insight 2: fewer active experts -> less parallelism."""
        sparse = sim.simulate_step(MIXTRAL_8X7B, 4, 128, dense=False).time_weighted_sm("moe")
        dense = sim.simulate_step(MIXTRAL_8X7B, 4, 128, dense=True).time_weighted_sm("moe")
        assert sparse < dense

    def test_dequant_sm_batch_independent(self, sim):
        """Fig. 9 insight 3."""
        values = [
            sim.simulate_step(MIXTRAL_8X7B, b, 128, dense=False)
            .sm_utilization_by_kernel("moe")["w1_dequant"]
            for b in (1, 10, 32)
        ]
        assert max(values) - min(values) < 5.0

    def test_dram_utilization_falls_with_batch(self, sim):
        """Fig. 10 / Takeaway 5: memory-bound -> compute-bound transition."""
        tw = [
            sim.simulate_step(MIXTRAL_8X7B, b, 128, dense=False).time_weighted_dram("moe")
            for b in (1, 10, 32)
        ]
        assert tw == sorted(tw, reverse=True)

    def test_matmul_dram_falls_with_batch(self, sim):
        values = [
            sim.simulate_step(MIXTRAL_8X7B, b, 128, dense=False)
            .dram_utilization_by_kernel("moe")["matmul(w1)"]
            for b in (1, 32)
        ]
        assert values[0] > values[1]

    def test_matmuls_dominate_moe_kernels(self, sim):
        """Takeaway 3."""
        trace = sim.simulate_step(MIXTRAL_8X7B, 10, 128, dense=False)
        table = trace.kernel_seconds_by_name(layer="moe")
        matmul = sum(v for k, v in table.items() if k.startswith("matmul"))
        assert matmul / sum(table.values()) > 0.5

    def test_dequant_share_shrinks_with_batch(self, sim):
        """Fig. 6: dequant is significant at small batch, amortized at large."""

        def dequant_share(batch):
            table = sim.simulate_step(MIXTRAL_8X7B, batch, 128, dense=False).kernel_seconds_by_name("moe")
            dequant = sum(v for k, v in table.items() if "dequant" in k)
            return dequant / sum(table.values())

        assert dequant_share(1) > dequant_share(32)
