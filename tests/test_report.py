"""Tests for the experiment report runner."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.report import TRAINING_EXPERIMENTS, run_report


class TestReportRunner:
    def test_fast_report_covers_all_artifacts(self):
        text = run_report(include_training=False)
        for key in ("table1", "table3", "fig8", "fig13", "fig14", "table4", "seqlen"):
            assert f"== {key}" in text

    def test_training_experiments_skipped_by_default(self):
        text = run_report(include_training=False)
        for key in TRAINING_EXPERIMENTS:
            assert f"== {key}: skipped" in text

    def test_match_summaries_present(self):
        text = run_report(include_training=False)
        assert "paper-comparable rows within 50%" in text

    def test_add_rejects_a_repeated_label(self):
        """Readers key rows by label, so every experiment the tests above
        run fails on a repeated one. The training experiments are checked
        the same way by CI's training-experiment step."""
        result = ExperimentResult("fig0", "title")
        result.add("share", 0.5)
        with pytest.raises(ValueError, match="fig0 already has a row labeled 'share'"):
            result.add("share", 0.5)
        assert len(result.rows) == 1
