"""Tests for the fault-sweep robustness experiment."""

import numpy as np
import pytest

from repro.analysis.fault_sweep import DEFAULT_RATES, fault_sweep
from repro.core.errors import ExperimentError
from repro.mlp.trainer import BackPropTrainer
from repro.snn.network import SNNTrainer

#: Cheap sweep configuration shared by the tests below.
CHEAP = dict(
    scale=0.4, rates=(0.0, 0.3), trials=1, seed=3, mlp_epochs=40, snn_epochs=1
)


@pytest.fixture(scope="module")
def sweep_result():
    return fault_sweep(**CHEAP)


class TestValidation:
    def test_scale_out_of_range(self):
        with pytest.raises(ExperimentError, match="scale"):
            fault_sweep(scale=0.0)
        with pytest.raises(ExperimentError, match="scale"):
            fault_sweep(scale=1.5)

    def test_bad_rates_rejected(self):
        with pytest.raises(ExperimentError, match="rates"):
            fault_sweep(rates=[0.0, 2.0])
        with pytest.raises(ExperimentError, match="rates"):
            fault_sweep(rates=[])

    def test_bad_trials_rejected(self):
        with pytest.raises(ExperimentError, match="trials"):
            fault_sweep(trials=0)

    def test_default_rates_start_clean_and_increase(self):
        assert DEFAULT_RATES[0] == 0.0
        assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)


class TestSweepResult:
    def test_one_row_per_rate_with_all_columns(self, sweep_result):
        assert len(sweep_result.rows) == 2
        for row in sweep_result.rows:
            for column in (
                "weight_ber",
                "mlp8_acc",
                "snnwt_acc",
                "snnwot_acc",
                "mlp8_ret%",
                "snnwt_ret%",
                "snnwot_ret%",
            ):
                assert column in row

    def test_rate_zero_row_is_the_clean_baseline(self, sweep_result):
        clean = sweep_result.find_row(weight_ber=0.0)
        # Retention is measured against the first swept rate, so the
        # uninjected row retains exactly 100% for every model.
        assert clean["mlp8_ret%"] == 100.0
        assert clean["snnwt_ret%"] == 100.0
        assert clean["snnwot_ret%"] == 100.0
        # And the models actually learned something at this scale
        # (chance on the 10-class digits workload is 10%).
        assert clean["mlp8_acc"] > 25.0
        assert clean["snnwot_acc"] > 25.0

    def test_heavy_corruption_degrades_every_model(self, sweep_result):
        clean = sweep_result.find_row(weight_ber=0.0)
        heavy = sweep_result.find_row(weight_ber=0.3)
        assert heavy["mlp8_acc"] < clean["mlp8_acc"]
        assert heavy["snnwot_acc"] <= clean["snnwot_acc"]
        assert heavy["snnwt_acc"] <= clean["snnwt_acc"]

    def test_deterministic_given_seed(self, sweep_result):
        again = fault_sweep(**CHEAP)
        assert again.rows == sweep_result.rows

    def test_paper_claims_attached(self, sweep_result):
        assert sweep_result.paper_rows
        assert any(
            "graceful" in row["expectation"] for row in sweep_result.paper_rows
        )


class TestSweepModelCache:
    def test_warm_sweep_trains_nothing(self, tmp_path, monkeypatch, sweep_result):
        """Both models come from the model cache the first run filled."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        first = fault_sweep(**CHEAP)

        def must_not_train(*args, **kwargs):
            raise AssertionError("a warm fault sweep trained a model")

        monkeypatch.setattr(BackPropTrainer, "train", must_not_train)
        monkeypatch.setattr(SNNTrainer, "fit", must_not_train)
        warm = fault_sweep(**CHEAP)
        assert warm.rows == first.rows == sweep_result.rows

    def test_uncached_sweep_trains_both_models(self, monkeypatch, sweep_result):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        trained = []
        real_train = BackPropTrainer.train
        real_fit = SNNTrainer.fit

        def counting_train(self, *args, **kwargs):
            trained.append("mlp")
            return real_train(self, *args, **kwargs)

        def counting_fit(self, *args, **kwargs):
            trained.append("snn")
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(BackPropTrainer, "train", counting_train)
        monkeypatch.setattr(SNNTrainer, "fit", counting_fit)
        assert fault_sweep(**CHEAP).rows == sweep_result.rows
        assert sorted(trained) == ["mlp", "snn"]


class TestRegistryIntegration:
    def test_registered_under_fault_sweep(self):
        import repro.analysis  # noqa: F401  (registers experiments)
        from repro.core import registry

        spec = registry.get("fault-sweep")
        assert spec.fn is fault_sweep
        assert "fault" in spec.title.lower() or "fault" in spec.paper_location.lower()
