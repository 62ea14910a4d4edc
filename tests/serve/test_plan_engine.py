"""Plan serving: compiled plans behind server and pool, and refusals.

Every served model is a :class:`~repro.ir.ops.CompiledPlan`:

* ``build_runners`` serves every model from its plan, bit-identically
  to the model's direct prediction;
* a model that does not compile — here, real clones carrying a live
  spike-fault injector — is refused with a :class:`ServingError`
  naming it, chained from the :class:`CompileError`: by
  ``build_runners`` / ``InferenceServer.from_models``, by
  ``ShardedPool`` before any shared-memory segment or shard exists,
  and by ``swap_model`` / ``hot_swap`` before the old model stops
  serving;
* the sharded pool ships plan skeletons + consts (+ encoded spike
  trains) through shared memory, serves bit-identically, and
  hot-swaps plan specs;
* stats surface ``plan_cache`` and ``spawn_ready_seconds``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.serve.workers as workers
from repro.core.errors import CompileError, ServingError
from repro.faults import (
    FaultConfig,
    FaultInjector,
    corrupt_spiking_network,
    faulty_snn_wot,
)
from repro.mlp.quantized import QuantizedMLP
from repro.serve.engine import InferenceServer, PlanRunner, build_runners
from repro.serve.loadgen import direct_predictions, run_loadtest
from repro.serve.workers import ShardedPool
from repro.snn.batched import predict_batch
from repro.snn.network import SNNTrainer
from repro.snn.snn_wot import SNNWithoutTime


@pytest.fixture(params=["snnwt", "snnwot"])
def faulted(request, trained_snn):
    """``(name, clean, faulted)`` with live dropped-spike faults."""
    injector = FaultInjector(FaultConfig(spike_drop_rate=0.5, seed=5))
    if request.param == "snnwt":
        return "snnwt", trained_snn, corrupt_spiking_network(trained_snn, injector)
    return (
        "snnwot",
        SNNWithoutTime(trained_snn),
        faulty_snn_wot(trained_snn, injector),
    )


def _assert_refused(info, name):
    """The refusal names the model and chains the compiler's reason."""
    assert repr(name) in str(info.value)
    assert isinstance(info.value.__cause__, CompileError)


class TestBuildRunners:
    def test_plan_engine_serves_compiled_plans(
        self, trained_mlp, trained_snn
    ):
        runners = build_runners(
            {"mlp": trained_mlp, "snnwt": trained_snn}, seed=7
        )
        assert isinstance(runners["mlp"], PlanRunner)
        assert isinstance(runners["snnwt"], PlanRunner)
        assert runners["snnwt"].plan.meta["seed"] == 7

    def test_uncompilable_model_is_refused(self, trained_mlp, faulted):
        name, _clean, model = faulted
        with pytest.raises(ServingError) as info:
            build_runners({"mlp": trained_mlp, name: model})
        _assert_refused(info, name)
        with pytest.raises(ServingError) as info:
            InferenceServer.from_models({"mlp": trained_mlp, name: model})
        _assert_refused(info, name)

    def test_unknown_engine_rejected(self, trained_mlp):
        # There is one engine and no argument to choose it.
        for engine in ("plan", "legacy", "turbo"):
            with pytest.raises(TypeError):
                build_runners({"mlp": trained_mlp}, engine=engine)
            with pytest.raises(TypeError):
                InferenceServer.from_models(
                    {"mlp": trained_mlp}, engine=engine
                )
        for callable_ in (
            build_runners,
            InferenceServer.from_models,
            InferenceServer.swap_model,
            ShardedPool,
            run_loadtest,
            SNNTrainer.predict,
            SNNTrainer.evaluate,
        ):
            assert "engine" not in inspect.signature(callable_).parameters


class TestServerBitIdentity:
    def test_served_answers_equal_direct_predictions(
        self, trained_mlp, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        models = {
            "mlp": trained_mlp,
            "mlp-q": QuantizedMLP(trained_mlp),
            "snnwt": trained_snn,
        }
        indices = list(range(0, len(images), 7))
        server = InferenceServer.from_models(models, images=images)
        try:
            answers = {
                name: server.predict_many(name, indices=indices)
                for name in models
            }
            stats = server.stats()
        finally:
            server.close()
        assert set(stats["plan_cache"]) == {
            "plan_hits", "plan_misses", "plan_compiles",
            "trains_hits", "trains_misses",
        }
        assert "engines" not in stats
        for name, model in models.items():
            np.testing.assert_array_equal(
                answers[name], direct_predictions(model, images, indices)
            )

    def test_plan_engine_matches_direct_predictions(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        indices = list(range(0, len(images), 9))
        server = InferenceServer.from_models(
            {"snnwt": trained_snn}, images=images
        )
        try:
            got = server.predict_many("snnwt", indices=indices)
        finally:
            server.close()
        expected = predict_batch(
            trained_snn, images[indices], indices=indices
        )
        np.testing.assert_array_equal(got, expected)

    def test_refused_swap_keeps_the_old_model_serving(
        self, faulted, digits_small
    ):
        name, clean, model = faulted
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        indices = list(range(0, len(images), 4))
        server = InferenceServer.from_models({name: clean}, images=images)
        try:
            before = server.predict_many(name, indices=indices)
            runner = server.runners[name]
            with pytest.raises(ServingError) as info:
                server.swap_model(name, model)
            _assert_refused(info, name)
            assert server.runners[name] is runner
            after = server.predict_many(name, indices=indices)
        finally:
            server.close()
        np.testing.assert_array_equal(after, before)
        np.testing.assert_array_equal(
            before, direct_predictions(clean, images, indices)
        )


class TestPoolPlanEngine:
    def test_plan_pool_is_bit_identical_and_faster_to_spawn(
        self, trained_snn, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        reference_snn = predict_batch(trained_snn, images)
        reference_mlp = np.asarray(trained_mlp.predict_images(images))
        indices = list(range(0, len(images), 5))
        with ShardedPool(
            {"snnwt": trained_snn, "mlp": trained_mlp},
            jobs=2,
            images=images,
        ) as pool:
            got_snn = pool.run_batch("snnwt", indices, None)
            got_mlp = pool.run_batch("mlp", indices, None)
            stats = pool.stats()
        np.testing.assert_array_equal(got_snn, reference_snn[indices])
        np.testing.assert_array_equal(got_mlp, reference_mlp[indices])
        assert "engine" not in stats
        spawn = stats["spawn_ready_seconds"]
        assert spawn["count"] >= 2
        assert spawn["mean"] > 0.0

    def test_unknown_engine_rejected(self, trained_mlp):
        # There is one engine and no argument to choose it.
        for engine in ("plan", "legacy", "turbo"):
            with pytest.raises(TypeError):
                ShardedPool({"mlp": trained_mlp}, jobs=1, engine=engine)

    def test_faulted_model_is_refused_before_any_segment_or_shard(
        self, trained_mlp, faulted, digits_small, monkeypatch
    ):
        name, _clean, model = faulted
        _, test_set = digits_small

        def must_not_run(*args, **kwargs):
            raise AssertionError("the pool built something for a refused model")

        monkeypatch.setattr(workers.SharedArrayBundle, "create", must_not_run)
        monkeypatch.setattr(ShardedPool, "_spawn_shard", must_not_run)
        with pytest.raises(ServingError) as info:
            ShardedPool(
                {"mlp": trained_mlp, name: model},
                jobs=1,
                images=np.asarray(test_set.images),
            )
        _assert_refused(info, name)

    def test_refused_hot_swap_keeps_the_old_model_serving(
        self, faulted, digits_small
    ):
        name, clean, model = faulted
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        indices = list(range(0, len(images), 4))
        pool = ShardedPool({name: clean}, jobs=1, images=images)
        server = InferenceServer(pool=pool, images=images)
        try:
            before = server.predict_many(name, indices=indices)
            generations = pool.stats()["generations"]
            with pytest.raises(ServingError) as info:
                server.swap_model(name, model)
            _assert_refused(info, name)
            with pytest.raises(ServingError) as info:
                pool.hot_swap({name: model})
            _assert_refused(info, name)
            stats = pool.stats()
            after = server.predict_many(name, indices=indices)
        finally:
            server.close()
        assert stats["hot_swaps"] == 0
        assert stats["generations"] == generations
        np.testing.assert_array_equal(after, before)
        np.testing.assert_array_equal(
            before, direct_predictions(clean, images, indices)
        )

    def test_hot_swap_ships_plan_specs(self, trained_snn, digits_small):
        train_set, test_set = digits_small
        images = np.asarray(test_set.images)
        reference = predict_batch(trained_snn, images)
        with ShardedPool(
            {"snnwt": trained_snn}, jobs=2, images=images
        ) as pool:
            assert pool._specs["snnwt"]["trains"]
            before = pool.run_batch("snnwt", [0, 1, 2], None)
            np.testing.assert_array_equal(before, reference[[0, 1, 2]])
            trainer = SNNTrainer(trained_snn)
            result = pool.hot_swap({"snnwt": trainer.network})
            assert result["swapped"] == ["snnwt"]
            assert pool._specs["snnwt"]["skeleton"]["kind"] == "snnwt"
            after = pool.run_batch("snnwt", [0, 1, 2], None)
            np.testing.assert_array_equal(after, reference[[0, 1, 2]])
