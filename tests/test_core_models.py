"""Tests for the analytical models (Eq. 1, Eq. 2) and their fitting."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    BatchSizeModel,
    BatchSizeObservation,
    PAPER_BATCH_COEFFICIENTS,
    ThroughputModel,
    ThroughputObservation,
    collect_batch_size_observations,
    collect_throughput_observations,
    fit_dense_sparse,
)
from repro.gpu import A40, A100_40, A100_80, H100
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B


class TestBatchSizeModelEq1:
    def make(self, c0=10.0, c1=0.9, model_mem=23.35, overhead=0.0):
        return BatchSizeModel(c0=c0, c1=c1, model_memory_gb=model_mem, overhead_gb=overhead)

    def test_predict_formula_literal(self):
        model = self.make(c0=2.0, c1=0.5)
        # 2 * (48 - 23.35) / (100 * (0.5 + 0.5*0.25)) = 0.7888 -> floor 0
        assert model.predict_raw(48, 100, 0.25) == pytest.approx(
            2.0 * (48 - 23.35) / (100 * 0.625)
        )
        assert model.predict(48, 100, 0.25) == 0

    def test_floor_and_clamp(self):
        model = self.make(c0=100.0, c1=0.0)
        assert isinstance(model.predict(48, 128, 0.25), int)
        assert model.predict(10, 128, 0.25) == 0  # free memory negative

    def test_monotone_in_memory(self):
        model = self.make()
        values = [model.predict(m, 128, 0.25) for m in (40, 48, 80, 120)]
        assert values == sorted(values)

    def test_sparsity_increases_batch(self):
        model = self.make(c1=0.9)
        assert model.predict_raw(80, 128, 0.25) > model.predict_raw(80, 128, 1.0)

    def test_c1_zero_removes_sparsity_effect(self):
        model = self.make(c1=0.0)
        assert model.predict_raw(80, 128, 0.25) == model.predict_raw(80, 128, 1.0)

    def test_invalid_inputs(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.predict_raw(48, 0, 0.25)
        with pytest.raises(ValueError):
            model.predict_raw(48, 128, 0.0)

    def test_fit_recovers_synthetic_coefficients(self):
        truth = self.make(c0=15.0, c1=0.8)
        observations = [
            BatchSizeObservation(m, 23.35, s, sp, truth.predict(m, s, sp))
            for m in (40, 48, 80, 100)
            for s in (64, 128, 256)
            for sp in (0.25, 1.0)
        ]
        fitted = BatchSizeModel.fit(observations)
        assert fitted.c0 == pytest.approx(15.0, rel=0.15)
        assert fitted.c1 == pytest.approx(0.8, abs=0.08)

    def test_fit_on_oracle_recovers_paper_c1(self):
        """Headline reproduction: C1 ~ 0.95 (Mixtral), ~ 0.88 (BlackMamba)."""
        gpus = [A100_40, A40, A100_80, H100]
        for cfg, paper_key in ((MIXTRAL_8X7B, "mixtral"), (BLACKMAMBA_2_8B, "blackmamba")):
            observations = collect_batch_size_observations(cfg, gpus)
            fitted = BatchSizeModel.fit(observations, fit_overhead=True)
            paper_c1 = PAPER_BATCH_COEFFICIENTS[paper_key][1]
            assert fitted.c1 == pytest.approx(paper_c1, abs=0.08)

    def test_extended_fit_beats_literal(self):
        observations = collect_batch_size_observations(MIXTRAL_8X7B, [A100_40, A40, A100_80, H100])
        literal = BatchSizeModel.fit(observations)
        extended = BatchSizeModel.fit(observations, fit_overhead=True)
        assert extended.rmse(observations) < literal.rmse(observations)

    def test_projection_matches_paper_scale(self):
        """Fig. 13: ~28 at 100GB, ~35 at 120GB (ours: 29-31 / 38-41)."""
        observations = collect_batch_size_observations(MIXTRAL_8X7B, [A100_40, A40, A100_80, H100])
        model = BatchSizeModel.fit(observations, fit_overhead=True)
        sweep = model.project_memory_sweep([100, 120], 128, 0.25)
        assert 24 <= sweep[100] <= 34
        assert 31 <= sweep[120] <= 44

    def test_fit_requires_single_model(self):
        mixed = [
            BatchSizeObservation(48, 23.35, 128, 0.25, 5),
            BatchSizeObservation(48, 5.6, 128, 0.25, 20),
        ]
        with pytest.raises(ValueError):
            BatchSizeModel.fit(mixed)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            BatchSizeModel.fit([])


class TestThroughputModelEq2:
    def test_exponent_form_formula(self):
        model = ThroughputModel(c2=1.0, c3=2.0, c4=0.5, form="exponent")
        expected = np.log(4 / 0.25**2) + 0.5
        assert model.predict(4, 0.25) == pytest.approx(expected)

    def test_literal_form_formula(self):
        model = ThroughputModel(c2=1.0, c3=2.0, c4=0.5, form="literal")
        expected = np.log(4 / (0.25 * 2.0)) + 0.5
        assert model.predict(4, 0.25) == pytest.approx(expected)

    def test_intercept_is_batch1_dense_throughput(self):
        model = ThroughputModel(c2=1.3, c3=1.0, c4=0.4)
        assert model.predict(1, 1.0) == pytest.approx(0.4)

    def test_prediction_clamped_nonnegative(self):
        model = ThroughputModel(c2=1.0, c3=0.0, c4=-10.0)
        assert model.predict(1, 1.0) == 0.0

    def test_invalid_inputs(self):
        model = ThroughputModel(c2=1.0, c3=1.0, c4=0.0)
        with pytest.raises(ValueError):
            model.predict(0, 0.25)
        with pytest.raises(ValueError):
            model.predict(4, 1.5)

    def test_fit_recovers_synthetic(self):
        truth = ThroughputModel(c2=0.8, c3=0.5, c4=0.3)
        observations = [
            ThroughputObservation(b, s, truth.predict(b, s))
            for b in (1, 2, 4, 8, 16)
            for s in (0.25, 1.0)
        ]
        fitted = ThroughputModel.fit(observations)
        assert fitted.c2 == pytest.approx(0.8, rel=0.05)
        assert fitted.rmse(observations) < 1e-6

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            ThroughputModel.fit([ThroughputObservation(1, 1.0, 0.5)] * 2)

    def test_fit_on_simulator_rmse_paper_scale(self):
        """Fig. 14: paper RMSEs are 0.02-0.79; ours must be comparable."""
        dense = collect_throughput_observations(MIXTRAL_8X7B, A40, 80, dense=True)
        sparse = collect_throughput_observations(MIXTRAL_8X7B, A40, 80, dense=False)
        _model, rmse = fit_dense_sparse(dense, sparse)
        assert rmse < 0.3

    def test_fit_blackmamba_rmse(self):
        dense = collect_throughput_observations(BLACKMAMBA_2_8B, A40, 80, dense=True)
        sparse = collect_throughput_observations(BLACKMAMBA_2_8B, A40, 80, dense=False)
        _model, rmse = fit_dense_sparse(dense, sparse)
        assert rmse < 1.6  # paper's own Mamba-CS RMSE is 0.79

    def test_default_sweep_covers_max_batch(self):
        observations = collect_throughput_observations(MIXTRAL_8X7B, A40, 80, dense=False)
        from repro.memory import max_batch_size

        assert len(observations) == max_batch_size(MIXTRAL_8X7B, A40, 80, dense=False)

    def test_model_monotone_in_batch(self):
        dense = collect_throughput_observations(MIXTRAL_8X7B, A40, 80, dense=True)
        sparse = collect_throughput_observations(MIXTRAL_8X7B, A40, 80, dense=False)
        model, _ = fit_dense_sparse(dense, sparse)
        values = [model.predict(b, 0.25) for b in (1, 2, 4, 8)]
        assert values == sorted(values)


def test_plan_entry_points_leave_scipy_optimize_unimported():
    """Fitting imports scipy.optimize on first use; planning never fits,
    so the plan CLIs and the service start without it."""
    code = (
        "import sys\n"
        "import repro.service.serve, repro.cluster.plan, repro.spot.plan\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=os.path.dirname(os.path.dirname(__file__)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
