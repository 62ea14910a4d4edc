"""Tests for the resilient experiment runner (retry/timeout/degrade/resume)."""

import time

import pytest

from repro.core.errors import ExperimentError, ExperimentTimeoutError
from repro.core.experiment import (
    ExperimentResult,
    FailureRecord,
    ResilientRunner,
    RunPolicy,
)
from repro.core.rng import DEFAULT_SEED


def make_result(**overrides) -> ExperimentResult:
    base = dict(experiment_id="t", title="T", rows=[{"a": 1}])
    base.update(overrides)
    return ExperimentResult(**base)


def runner(sleep=lambda _s: None, **policy_kwargs) -> ResilientRunner:
    return ResilientRunner(RunPolicy(**policy_kwargs), sleep=sleep)


class TestRunPolicy:
    def test_defaults_validate(self):
        assert RunPolicy().validate() == RunPolicy()

    def test_negative_retries_rejected(self):
        with pytest.raises(ExperimentError, match="retries"):
            RunPolicy(retries=-1).validate()

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ExperimentError, match="timeout"):
            RunPolicy(timeout_seconds=0.0).validate()

    def test_bad_backoff_rejected(self):
        with pytest.raises(ExperimentError, match="backoff"):
            RunPolicy(backoff_seconds=-1.0).validate()
        with pytest.raises(ExperimentError, match="backoff"):
            RunPolicy(backoff_factor=0.5).validate()

    def test_bad_degrade_scale_rejected(self):
        with pytest.raises(ExperimentError, match="degrade"):
            RunPolicy(degrade_scales=(1.5,)).validate()


class TestSuccessFirstTry:
    def test_single_attempt_no_failures(self):
        calls = []

        def fn(seed: int = 0):
            calls.append(seed)
            return make_result()

        result = runner(retries=3).run(fn, seed=5)
        assert result.attempts == 1
        assert result.failures == []
        assert not result.degraded
        assert calls == [5]  # the caller's seed is untouched

    def test_elapsed_time_stamped(self):
        result = runner().run(lambda: make_result())
        assert result.elapsed_seconds >= 0.0


class TestRetryThenSuccess:
    def test_failures_recorded_then_success(self):
        attempts = []

        def fn(seed: int = 0):
            attempts.append(seed)
            if len(attempts) < 3:
                raise ValueError(f"boom {len(attempts)}")
            return make_result()

        result = runner(retries=3).run(fn, seed=10)
        assert result.attempts == 3
        assert len(result.failures) == 2
        assert [f["error"] for f in result.failures] == ["ValueError"] * 2
        assert [f["kind"] for f in result.failures] == ["error"] * 2
        assert not result.degraded

    def test_retries_reseed_deterministically(self):
        seeds = []

        def fn(seed: int = 0):
            seeds.append(seed)
            if len(seeds) < 3:
                raise ValueError("boom")
            return make_result()

        runner(retries=2).run(fn, seed=10)
        assert seeds == [10, 10 + 1009, 10 + 2018]

    def test_reseed_defaults_when_no_seed_given(self):
        seeds = []

        def fn(seed: int = 0):
            seeds.append(seed)
            if len(seeds) < 2:
                raise ValueError("boom")
            return make_result()

        runner(retries=1).run(fn)
        assert seeds == [0, DEFAULT_SEED + 1009]

    def test_reseed_disabled(self):
        seeds = []

        def fn(seed: int = 0):
            seeds.append(seed)
            if len(seeds) < 2:
                raise ValueError("boom")
            return make_result()

        runner(retries=1, reseed=False).run(fn, seed=4)
        assert seeds == [4, 4]

    def test_exponential_backoff_sequence(self):
        sleeps = []
        calls = []

        def fn():
            calls.append(1)
            if len(calls) < 4:
                raise ValueError("boom")
            return make_result()

        runner(
            sleep=sleeps.append, retries=3, backoff_seconds=0.5, backoff_factor=2.0
        ).run(fn)
        assert sleeps == [0.5, 1.0, 2.0]


class TestTimeout:
    def test_timeout_triggers_retry(self):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(5.0)  # blows the budget; thread is abandoned
            return make_result()

        result = runner(retries=1, timeout_seconds=0.2).run(fn)
        assert result.attempts == 2
        assert len(calls) == 2
        assert result.failures[0]["kind"] == "timeout"
        assert "wall-clock" in result.failures[0]["message"]

    def test_timeout_exhaustion_raises_timeout_history(self):
        def fn():
            time.sleep(5.0)
            return make_result()

        with pytest.raises(ExperimentError) as excinfo:
            runner(timeout_seconds=0.1).run(fn, experiment_id="slow")
        assert "slow" in str(excinfo.value)
        assert excinfo.value.failure_records[0]["kind"] == "timeout"

    def test_worker_exception_propagates_through_timeout_path(self):
        def fn():
            raise KeyError("inner")

        with pytest.raises(ExperimentError):
            runner(timeout_seconds=5.0).run(fn)


class TestGracefulDegradation:
    def test_degrades_after_exhausted_retries(self):
        seen = []

        def fn(scale: float = 1.0, seed: int = 0):
            seen.append(scale)
            if scale > 0.5:
                raise ValueError("full fidelity too big")
            return make_result()

        result = runner(retries=1, degrade_scales=(0.5, 0.25)).run(fn, scale=1.0)
        assert seen == [1.0, 1.0, 0.5]
        assert result.degraded
        assert result.attempts == 3
        assert len(result.failures) == 2
        assert "degraded to scale=0.5" in result.notes

    def test_no_degradation_when_fn_lacks_scale(self):
        calls = []

        def fn():
            calls.append(1)
            raise ValueError("boom")

        with pytest.raises(ExperimentError):
            runner(degrade_scales=(0.5, 0.25)).run(fn)
        assert len(calls) == 1  # no scale keyword -> no fallback levels

    def test_failure_records_carry_scale(self):
        def fn(scale: float = 1.0):
            if scale == 1.0:
                raise ValueError("boom")
            return make_result()

        result = runner(degrade_scales=(0.5,)).run(fn, scale=1.0)
        assert result.failures[0]["scale"] == 1.0


class TestExhaustion:
    def test_all_attempts_fail_raises_with_history(self):
        def fn():
            raise ValueError("always")

        with pytest.raises(ExperimentError, match="all 3 attempt"):
            try:
                runner(retries=2).run(fn, experiment_id="doomed")
            except ExperimentError as error:
                assert len(error.failure_records) == 3
                assert error.__cause__ is not None
                raise

    def test_unnamed_function_uses_dunder_name(self):
        def kaboom():
            raise ValueError("x")

        with pytest.raises(ExperimentError, match="kaboom"):
            runner().run(kaboom)


class TestModelCacheResume:
    def test_retries_reload_the_trained_model(self, tmp_path, monkeypatch):
        """Reseeded retries resume through the model cache's content key."""
        import numpy as np

        from repro.core import artifacts
        from repro.core.config import MLPConfig
        from repro.datasets.base import Dataset
        from repro.mlp.network import MLP

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        artifacts.reset_default_cache()
        dataset = Dataset(
            images=np.arange(40, dtype=np.uint8).reshape(4, 10),
            labels=np.array([0, 1, 0, 1]),
            n_classes=2,
            name="resume",
        )
        config = MLPConfig(n_inputs=10, n_hidden=4, n_output=2).validate()
        trainings = []
        seeds = []

        def train():
            trainings.append(1)
            return MLP(config)

        def fn(seed: int = 0):
            seeds.append(seed)
            model = artifacts.cached_train("mlp", config, dataset, train)
            assert isinstance(model, MLP)
            if len(seeds) < 3:
                raise ValueError("post-training failure")
            return make_result()

        try:
            result = runner(retries=2).run(fn)
        finally:
            artifacts.reset_default_cache()
        assert result.attempts == 3
        assert len(set(seeds)) == 3  # every retry reseeded ...
        assert len(trainings) == 1  # ... and still reloaded the model


class TestFailureRecord:
    def test_as_row_rounds_elapsed(self):
        record = FailureRecord(
            attempt=1,
            scale=0.5,
            seed=3,
            kind="error",
            error="ValueError",
            message="boom",
            elapsed_seconds=0.123456,
        )
        row = record.as_row()
        assert row["elapsed_seconds"] == 0.123
        assert row["attempt"] == 1 and row["kind"] == "error"


class TestTimeoutErrorType:
    def test_timeout_is_experiment_error(self):
        assert issubclass(ExperimentTimeoutError, ExperimentError)
