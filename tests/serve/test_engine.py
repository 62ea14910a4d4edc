"""InferenceServer: routing, bit-identity, warmup, overload behavior.

The load-bearing assertion lives here: a *served* prediction equals
the corresponding direct ``predict`` / ``predict_batch`` call for the
same dataset index, no matter how requests were coalesced or how many
clients raced — the invariant that makes dynamic batching safe for a
stochastic model.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.errors import CompileError, Overloaded, ServingError
from repro.mlp.quantized import QuantizedMLP
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import (
    InferenceServer,
    ModelRunner,
    PlanRunner,
    build_runners,
)
from repro.snn.batched import predict_batch
from repro.snn.network import SpikingNetwork
from repro.snn.snn_wot import SNNWithoutTime


@pytest.fixture(scope="module")
def served_models(trained_snn, trained_mlp):
    return {
        "snnwt": trained_snn,
        "snnwot": SNNWithoutTime(trained_snn),
        "mlp": trained_mlp,
        "mlp-q": QuantizedMLP(trained_mlp),
    }


@pytest.fixture(scope="module")
def references(served_models, digits_small):
    """Direct whole-test-set predictions per model (the oracles)."""
    _, test_set = digits_small
    return {
        "snnwt": predict_batch(served_models["snnwt"], test_set.images),
        "snnwot": np.asarray(served_models["snnwot"].predict(test_set.images)),
        "mlp": np.asarray(served_models["mlp"].predict_images(test_set.images)),
        "mlp-q": np.asarray(served_models["mlp-q"].predict_images(test_set.images)),
    }


@pytest.fixture()
def server(served_models, digits_small):
    _, test_set = digits_small
    instance = InferenceServer.from_models(
        served_models,
        policy=BatchPolicy(max_batch=8, max_wait_us=2000.0),
        images=test_set.images,
    )
    yield instance
    instance.close()


class TestConstruction:
    def test_requires_exactly_one_backend(self):
        with pytest.raises(ServingError):
            InferenceServer()  # neither runners nor pool

    def test_requires_at_least_one_model(self):
        with pytest.raises(ServingError):
            InferenceServer(runners={})

    def test_build_runners_dispatch(self, served_models):
        # Every kind compiles onto the IR; each runner serves its plan.
        runners = build_runners(served_models)
        for name in served_models:
            assert isinstance(runners[name], PlanRunner)
            assert runners[name].plan.kind == name

    def test_build_runners_rejects_modelless_object(self):
        with pytest.raises(ServingError, match="'bogus'") as info:
            build_runners({"bogus": object()})
        assert isinstance(info.value.__cause__, CompileError)

    def test_snnwt_runner_rejects_unlabeled_network(self, snn_config_small):
        with pytest.raises(ServingError, match="'snnwt'") as info:
            build_runners({"snnwt": SpikingNetwork(snn_config_small)})
        assert isinstance(info.value.__cause__, CompileError)


class TestBitIdentity:
    def test_served_equals_direct_for_every_model(
        self, server, references, digits_small
    ):
        _, test_set = digits_small
        indices = list(range(0, len(test_set.images), 3))
        for name, reference in references.items():
            served = server.predict_many(name, indices=indices)
            np.testing.assert_array_equal(served, reference[indices])

    def test_concurrent_clients_get_batch_independent_answers(
        self, server, references, digits_small
    ):
        """Many racing clients => arbitrary batch compositions; every
        answer must still equal the whole-set reference at its index."""
        _, test_set = digits_small
        n = len(test_set.images)
        observed = []
        lock = threading.Lock()

        def client(client_seed: int) -> None:
            rng = np.random.default_rng(client_seed)
            for _ in range(25):
                index = int(rng.integers(n))
                label = server.predict("snnwt", index=index)
                with lock:
                    observed.append((index, label))

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(observed) == 75
        reference = references["snnwt"]
        for index, label in observed:
            assert label == reference[index]

    def test_image_payload_and_index_payload_agree(
        self, server, references, digits_small
    ):
        """Submitting the raw image row (with its index) matches the
        index-only path against the attached table."""
        _, test_set = digits_small
        for index in (0, 17, 42):
            by_index = server.predict("mlp", index=index)
            by_image = server.predict(
                "mlp", image=test_set.images[index], index=index
            )
            assert by_index == by_image == references["mlp"][index]


class TestRouting:
    def test_unknown_model_raises(self, server):
        with pytest.raises(ServingError):
            server.submit("resnet", index=0)

    def test_index_out_of_table_raises(self, server, digits_small):
        _, test_set = digits_small
        with pytest.raises(ServingError):
            server.submit("mlp", index=len(test_set.images))

    def test_index_only_without_table_raises(self, served_models):
        instance = InferenceServer.from_models({"mlp": served_models["mlp"]})
        try:
            with pytest.raises(ServingError):
                instance.submit("mlp", index=3)
        finally:
            instance.close()

    def test_predict_many_needs_images_or_indices(self, server):
        with pytest.raises(ServingError):
            server.predict_many("mlp")

    def test_models_property_sorted(self, server):
        assert server.models == sorted(["snnwt", "snnwot", "mlp", "mlp-q"])


class TestWarmup:
    def test_warm_precodes_snnwt_cache_once(self, served_models, digits_small):
        _, test_set = digits_small
        instance = InferenceServer.from_models(
            served_models, images=test_set.images
        )
        try:
            added = instance.warm(model="snnwt")
            assert added == len(test_set.images)
            assert instance.warm(model="snnwt") == 0  # already cached
            assert instance.warm(model="mlp") == 0  # deterministic: no cache
        finally:
            instance.close()

    def test_warm_unknown_model_raises(self, server):
        with pytest.raises(ServingError):
            server.warm(model="resnet")


class TestStatsAndOverload:
    def test_stats_shape(self, server):
        server.predict("mlp", index=1)
        stats = server.stats()
        assert set(stats["models"]) == set(server.models)
        entry = stats["models"]["mlp"]
        assert entry["model"] == "mlp"
        assert entry["completed"] >= 1

    def test_overload_returns_overloaded_instead_of_hanging(self):
        """A saturated queue sheds immediately with Overloaded; the
        admitted requests still complete."""

        class SlowRunner(ModelRunner):
            def run(self, indices, images):
                time.sleep(0.05)
                return np.zeros(len(indices), dtype=np.int64)

        instance = InferenceServer(
            runners={"slow": SlowRunner()},
            policy=BatchPolicy(max_batch=1, max_wait_us=0.0, max_queue=2),
        )
        try:
            row = np.zeros(4)
            admitted = []
            sheds = 0
            start = time.perf_counter()
            for _ in range(40):
                try:
                    admitted.append(instance.submit("slow", image=row))
                except Overloaded:
                    sheds += 1
            elapsed = time.perf_counter() - start
            assert sheds > 0
            # Shedding is immediate — the submit loop never blocked on
            # the slow engine (40 * 50ms would be 2s).
            assert elapsed < 1.0
            for future in admitted:
                assert future.result(timeout=30.0) == 0
            assert instance.metrics["slow"].shed == sheds
        finally:
            instance.close()

    def test_submit_after_close_raises(self, served_models, digits_small):
        _, test_set = digits_small
        instance = InferenceServer.from_models(
            served_models, images=test_set.images
        )
        instance.close()
        with pytest.raises(ServingError):
            instance.submit("mlp", index=0)
