"""Tests over the experiment suite: every fast artifact runs and its
headline (takeaway) claims hold."""

import json
import math
import warnings
from pathlib import Path

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig2_seqlen,
    fig4_stages,
    fig5_layers,
    fig6_kernels,
    fig8_throughput,
    fig9_sm,
    fig10_dram,
    fig13_projection,
    fig14_fit_a40,
    fig15_fit_gpus,
    seqlen_sensitivity,
    table1_models,
    table2_datasets,
    table3_maxbatch,
    table4_cost,
)
from repro.experiments.common import ExperimentResult, ExperimentRow
from repro.scenarios import SimulationCache


class TestResultContainers:
    def test_add_and_lookup(self):
        result = ExperimentResult("x", "t")
        result.add("a", 1.0, paper=1.1)
        assert result.row("a").measured == 1.0
        with pytest.raises(KeyError):
            result.row("missing")

    def test_matches_paper_tolerance(self):
        assert ExperimentRow("a", 1.0, paper=1.2).matches_paper(rel_tol=0.5)
        assert not ExperimentRow("a", 1.0, paper=3.0).matches_paper(rel_tol=0.5)
        assert ExperimentRow("a", "text", paper="text").matches_paper() is None
        assert ExperimentRow("a", 1.0).matches_paper() is None

    def test_to_table_renders(self):
        result = ExperimentResult("x", "demo")
        result.add("metric", 1.234, paper=1.3, note="n")
        text = result.to_table()
        assert "demo" in text and "1.234" in text


class TestRegistry:
    def test_all_nineteen_artifacts_registered(self):
        # 17 paper artifacts plus the cluster-planning and spot-risk extensions.
        assert len(ALL_EXPERIMENTS) == 19
        assert {"table1", "table2", "table3", "table4", "fig3", "fig11", "seqlen",
                "cluster", "spot"} <= set(ALL_EXPERIMENTS)


class TestTable1:
    def test_all_rows_match_paper(self):
        result = table1_models.run()
        for row in result.rows:
            assert row.matches_paper(rel_tol=0.05), row.label


class TestFig2:
    def test_medians(self):
        result = fig2_seqlen.run(sample_size=5000)
        assert result.row("commonsense15k_median").matches_paper(rel_tol=0.05)
        assert result.row("math14k_median").matches_paper(rel_tol=0.05)

    def test_table2_medians(self):
        """Table II reports the same two datasets' median lengths."""
        result = table2_datasets.run(sample_size=3000)
        assert result.row("commonsense15k_median_seq_len").matches_paper(rel_tol=0.1)
        assert result.row("math14k_median_seq_len").matches_paper(rel_tol=0.1)


class TestTable3:
    def test_every_cell_exact(self):
        result = table3_maxbatch.run()
        for row in result.rows:
            assert row.measured == row.paper, row.label


class TestFig4:
    def test_optimizer_shares(self):
        result = fig4_stages.run()
        assert result.row("blackmamba_S1_optimizer_share").matches_paper(rel_tol=0.25)
        assert result.row("mixtral_S1_optimizer_share").measured < 0.05

    def test_backward_over_forward_everywhere(self):
        result = fig4_stages.run()
        for row in result.rows:
            if row.label.endswith("_bwd_over_fwd"):
                assert row.measured > 1.0, row.label


class TestFig5:
    def test_average_moe_share_near_85(self):
        result = fig5_layers.run()
        assert 0.6 < result.row("average_moe_share").measured <= 1.0

    def test_moe_is_top_layer_for_mixtral(self):
        result = fig5_layers.run()
        assert result.row("mixtral_S10_moe_share").measured > 0.85


class TestFig6:
    def test_matmuls_dominate_everywhere(self):
        result = fig6_kernels.run()
        for row in result.rows:
            if row.label.endswith("_matmul_share"):
                assert row.measured > 0.45, row.label

    def test_dequant_nonzero_for_mixtral(self):
        result = fig6_kernels.run()
        assert result.row("mixtral_S1_w1_dequant_us").measured > 0


class TestFig8:
    def test_all_points_within_2x_of_paper(self):
        result = fig8_throughput.run()
        for row in result.rows:
            if row.paper is not None:
                assert row.matches_paper(rel_tol=1.0), f"{row.label}: {row.measured} vs {row.paper}"

    def test_majority_within_50pct(self):
        result = fig8_throughput.run()
        rows = [r for r in result.rows if r.paper is not None]
        good = sum(bool(r.matches_paper(rel_tol=0.5)) for r in rows)
        assert good / len(rows) > 0.7


class TestFig9And10:
    def test_sm_experiment_claims(self):
        result = fig9_sm.run()
        assert result.row("mixtral_matmul_w1_rise_s1_to_s32").measured > 20
        assert result.row("mixtral_dequant_batch_drift").measured < 5

    def test_dram_transition_claim(self):
        result = fig10_dram.run()
        assert result.row("mixtral_tw_dram_drop_s1_to_s32").measured > 5


class TestFig13:
    def test_c1_recovery(self):
        result = fig13_projection.run()
        assert abs(result.row("mixtral_c1_extended").measured - 0.95) < 0.08
        assert abs(result.row("blackmamba_c1_extended").measured - 0.88) < 0.08

    def test_projections_paper_scale(self):
        result = fig13_projection.run()
        assert result.row("projection_100gb").matches_paper(rel_tol=0.25)
        assert result.row("projection_120gb").matches_paper(rel_tol=0.25)


class TestFig14And15:
    def test_rmse_comparable_to_paper(self):
        result = fig14_fit_a40.run()
        for key, cap in (("mixtral_commonsense15k", 0.4), ("mixtral_math14k", 0.2),
                         ("blackmamba_commonsense15k", 1.6), ("blackmamba_math14k", 1.0)):
            assert result.row(f"{key}_rmse").measured < cap

    def test_other_gpus_rmse_small(self):
        result = fig15_fit_gpus.run()
        for gpu in ("A100-40GB", "A100-80GB", "H100-80GB"):
            value = result.row(f"{gpu}_rmse").measured
            assert math.isnan(value) or value < 1.1


FIT_EXPERIMENTS = {
    "fig13": fig13_projection,
    "fig14": fig14_fit_a40,
    "fig15": fig15_fit_gpus,
    "table4": table4_cost,
}

#: Every row of the Eq. 1/Eq. 2 fit experiments as recorded from
#: iterative bounded least-squares fits (trust-region solvers that stop at
#: their own tolerance), which the closed-form fits must reproduce.
GOLDEN_FIT_ROWS = json.loads(
    (Path(__file__).parent / "data" / "golden_fit_rows.json").read_text()
)


@pytest.mark.parametrize("experiment", sorted(FIT_EXPERIMENTS))
class TestClosedFormFits:
    def test_runs_without_warnings(self, experiment):
        module = FIT_EXPERIMENTS[experiment]
        kwargs = {} if experiment == "fig13" else {"cache": SimulationCache()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            module.run(**kwargs)

    def test_rows_match_the_iterative_fits(self, experiment):
        """The closed-form fits reproduce every row to ``rtol=1e-6``;
        Fig. 15's A100-40GB fit interpolates its 3 points, so its RMSE is
        zero up to rounding on both sides."""
        result = FIT_EXPERIMENTS[experiment].run()
        golden = GOLDEN_FIT_ROWS[experiment]
        assert [row.label for row in result.rows] == list(golden)
        for row in result.rows:
            expected = golden[row.label]
            if row.label == "A100-40GB_rmse":
                assert row.measured < 1e-12 and expected < 1e-12
            elif isinstance(expected, float):
                assert row.measured == pytest.approx(expected, rel=1e-6), row.label
            else:
                assert row.measured == expected, row.label


class TestTable4:
    def test_costs_match_paper(self):
        result = table4_cost.run()
        assert result.row("A40_cost").matches_paper(rel_tol=0.15)
        assert result.row("H100-80GB_cost").matches_paper(rel_tol=0.15)
        assert result.row("cheapest_gpu").measured == "H100-80GB"

    def test_openorca(self):
        result = table4_cost.run()
        assert result.row("openorca_h100_cost").matches_paper(rel_tol=0.25)


class TestSeqlenSensitivity:
    def test_mixtral_latency_flat(self):
        result = seqlen_sensitivity.run()
        ratio = result.row("mixtral_latency_ratio_longest_over_shortest").measured
        assert 0.6 < ratio < 1.6

    def test_blackmamba_latency_drops_as_paper(self):
        """Paper: ~19-25% latency decrease for BlackMamba at long lengths."""
        result = seqlen_sensitivity.run()
        ratio = result.row("blackmamba_latency_ratio_longest_over_shortest").measured
        assert 0.6 < ratio < 0.95

    def test_throughput_higher_for_short_sequences(self):
        result = seqlen_sensitivity.run()
        short = result.row("blackmamba_seq64_tput_qps").measured
        long = result.row("blackmamba_seq512_tput_qps").measured
        assert short > long
