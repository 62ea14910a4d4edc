"""Tests for the analysis layer: experiments, common helpers, reports.

Only the fast (hardware-model / static) experiments run here; the
training-heavy ones are exercised by the benchmark suite.
"""

import numpy as np
import pytest

import repro.analysis as analysis
from repro.analysis import common
from repro.core import registry


class TestCommonHelpers:
    def test_scale_factor_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert common.scale_factor() == 1.0

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert common.scale_factor() == 0.5

    def test_scale_factor_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        assert common.scale_factor() == 1.0

    def test_scale_factor_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert common.scale_factor() == 0.05

    def test_dataset_caches_return_same_object(self):
        first = common.digits(200, 60)
        second = common.digits(200, 60)
        assert first[0] is second[0]


class TestStaticExperiments:
    def test_table1_matches_paper_exactly(self):
        result = registry.get("table1").run()
        paper = {(r["model"], r["parameter"]): r["value"] for r in result.paper_rows}
        for row in result.rows:
            assert paper[(row["model"], row["parameter"])] == row["value"]

    def test_table2_static(self):
        result = registry.get("table2").run()
        assert result.rows == result.paper_rows

    @pytest.mark.parametrize(
        "experiment_id",
        ["table4", "table5", "table6", "table7", "table8", "table9", "fig5", "scale-study"],
    )
    def test_fast_experiments_produce_rows(self, experiment_id):
        result = registry.get(experiment_id).run()
        assert result.rows, experiment_id
        assert result.experiment_id == experiment_id
        # Every row must be a flat dict with printable values.
        for row in result.rows:
            for value in row.values():
                assert isinstance(value, (int, float, str, np.integer, np.floating))

    def test_table7_contains_all_design_points(self):
        result = registry.get("table7").run()
        designs = {(r["design"], r["ni"]) for r in result.rows}
        for design in ("MLP", "SNNwot", "SNNwt"):
            for ni in ("1", "4", "8", "16", "expanded"):
                assert (design, ni) in designs

    def test_scale_study_is_registered_extension(self):
        spec = registry.get("scale-study")
        assert "Conclusions" in spec.paper_location


class TestReportRendering:
    def test_full_report_subset(self):
        text = analysis.full_report(["table6", "fig5"])
        assert text.index("table6") < text.index("fig5")

    def test_render_handles_heterogeneous_rows(self):
        text = analysis.render_table([{"a": 1}, {"b": 2.5}])
        assert "a" in text and "b" in text

    def test_cli_report_all_fast(self, capsys):
        from repro.cli import main

        assert main(["report", "table4", "table6"]) == 0
        out = capsys.readouterr().out
        assert out.count("measured:") == 2


class TestFig6ModelCache:
    """fig6 trains its six MLPs through the content-addressed model cache."""

    @pytest.fixture()
    def small_digits(self, monkeypatch, digits_small):
        monkeypatch.setattr(common, "digits", lambda: digits_small)

    @staticmethod
    def _isolated_cache(monkeypatch, tmp_path):
        from repro.core import artifacts

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        artifacts.reset_default_cache()

    def test_second_run_trains_nothing(self, small_digits, monkeypatch, tmp_path):
        from repro.analysis.figures import fig6_bridging
        from repro.core import artifacts
        from repro.mlp.trainer import BackPropTrainer

        self._isolated_cache(monkeypatch, tmp_path)
        try:
            first = fig6_bridging(epochs=2)

            def must_not_train(*args, **kwargs):
                raise AssertionError("a warm fig6 trained an MLP")

            monkeypatch.setattr(BackPropTrainer, "train", must_not_train)
            second = fig6_bridging(epochs=2)
            assert artifacts.cache_stats()["hits"] == 6
        finally:
            artifacts.reset_default_cache()
        assert second.rows == first.rows
        assert len(first.rows) == 6

    def test_uncached_run_matches(self, small_digits, monkeypatch, tmp_path):
        from repro.analysis.figures import fig6_bridging
        from repro.core import artifacts

        self._isolated_cache(monkeypatch, tmp_path)
        try:
            cached = fig6_bridging(epochs=2)
        finally:
            artifacts.reset_default_cache()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        uncached = fig6_bridging(epochs=2)
        assert uncached.rows == cached.rows
