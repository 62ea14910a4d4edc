"""Load-generator arrival modes, oracles, and driver validation.

The expensive end-to-end driver (``run_loadtest``) is exercised by
``benchmarks/test_serving.py`` and the CI smoke job; here we test the
arrival-mode mechanics against a cheap synthetic runner, and the
bit-identity oracle against the shared trained fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ServingError
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import InferenceServer, ModelRunner
from repro.serve.loadgen import (
    KNOWN_MODELS,
    build_models,
    closed_loop,
    direct_predictions,
    open_loop,
    run_loadtest,
    verify_bit_identity,
)
from repro.snn.batched import predict_batch


class SumRunner(ModelRunner):
    """A fast deterministic toy model: label = pixel sum % 10."""

    def run(self, indices, images):
        return np.atleast_2d(images).astype(np.int64).sum(axis=1) % 10


@pytest.fixture()
def toy_server():
    """A fast deterministic server over a 64-image table: label = sum % 10."""
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(64, 16)).astype(np.uint8)
    server = InferenceServer(
        runners={"toy": SumRunner()},
        policy=BatchPolicy(max_batch=8, max_wait_us=500.0),
        images=images,
    )
    yield server, images
    server.close()


class TestClosedLoop:
    def test_drives_and_counts(self, toy_server):
        server, _images = toy_server
        stats = closed_loop(
            server, "toy", 64, concurrency=3, duration_seconds=0.3
        )
        assert stats["mode"] == "closed"
        assert stats["concurrency"] == 3
        assert stats["client_requests"] > 0
        assert stats["client_errors"] == 0
        assert stats["client_rps"] > 0
        assert server.metrics["toy"].completed == stats["client_requests"]

    def test_validates_inputs(self, toy_server):
        server, _ = toy_server
        with pytest.raises(ServingError):
            closed_loop(server, "toy", 64, concurrency=0)
        with pytest.raises(ServingError):
            closed_loop(server, "toy", 0)


class TestOpenLoop:
    def test_fixed_arrival_schedule(self, toy_server):
        server, _ = toy_server
        stats = open_loop(
            server, "toy", 64, offered_rps=100.0, duration_seconds=0.3
        )
        assert stats["mode"] == "open"
        assert stats["client_requests"] + stats["client_shed"] == 30
        assert stats["client_errors"] == 0
        # A fast server under modest offered load sheds nothing.
        assert stats["client_shed"] == 0

    def test_overload_sheds_instead_of_queueing(self):
        """Offered >> service rate with a tiny queue: the shed counter
        rises and the run still terminates promptly."""
        import time as time_module

        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(16, 8)).astype(np.uint8)

        class SlowRunner(ModelRunner):
            def run(self, indices, images):
                time_module.sleep(0.02 * len(indices))
                return np.zeros(len(indices), dtype=np.int64)

        server = InferenceServer(
            runners={"slow": SlowRunner()},
            policy=BatchPolicy(max_batch=1, max_wait_us=0.0, max_queue=2),
            images=images,
        )
        try:
            stats = open_loop(
                server, "slow", 16, offered_rps=500.0, duration_seconds=0.4
            )
            assert stats["client_shed"] > 0
            assert stats["client_requests"] + stats["client_shed"] == 200
        finally:
            server.close()

    def test_validates_rate(self, toy_server):
        server, _ = toy_server
        with pytest.raises(ServingError):
            open_loop(server, "toy", 64, offered_rps=0.0)


class TestOracles:
    def test_direct_predictions_mlp(self, trained_mlp, digits_small):
        _, test_set = digits_small
        indices = [5, 1, 9]
        got = direct_predictions(trained_mlp, test_set.images, indices)
        np.testing.assert_array_equal(
            got, np.asarray(trained_mlp.predict_images(test_set.images))[indices]
        )

    def test_direct_predictions_snnwt_uses_index_streams(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        whole = predict_batch(trained_snn, test_set.images)
        indices = [11, 3, 60]
        got = direct_predictions(trained_snn, test_set.images, indices)
        np.testing.assert_array_equal(got, whole[indices])

    def test_verify_bit_identity_passes_for_real_models(
        self, trained_snn, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        models = {"snnwt": trained_snn, "mlp": trained_mlp}
        server = InferenceServer.from_models(models, images=test_set.images)
        try:
            verdict = verify_bit_identity(
                server, models, test_set.images, n_check=16
            )
        finally:
            server.close()
        assert verdict == {"snnwt": True, "mlp": True}


class TestDriverValidation:
    """Cheap validation paths of the end-to-end driver (no training)."""

    def test_known_models_is_the_cli_contract(self):
        assert KNOWN_MODELS == ("mlp", "mlp-q", "snnwt", "snnwot", "snnbp")

    def test_build_models_rejects_unknown_dataset(self):
        with pytest.raises(ServingError):
            build_models(["mlp"], dataset="imagenet")

    def test_build_models_rejects_unknown_model(self):
        with pytest.raises(ServingError):
            build_models(["resnet"], dataset="digits")

    def test_run_loadtest_rejects_unknown_mode(self):
        with pytest.raises(ServingError):
            run_loadtest(models=("mlp",), mode="sinusoidal")


class TestGracefulDrain:
    def test_installs_and_restores_handlers_on_main_thread(self):
        import signal

        from repro.serve.loadgen import GracefulDrain

        before = {s: signal.getsignal(s) for s in GracefulDrain.SIGNALS}
        drain = GracefulDrain()
        with drain:
            for signum in GracefulDrain.SIGNALS:
                assert signal.getsignal(signum) == drain._handle
            assert not drain.triggered
        for signum, previous in before.items():
            assert signal.getsignal(signum) == previous

    def test_signal_sets_stop_event_instead_of_raising(self):
        import os
        import signal
        import time as time_module

        from repro.serve.loadgen import GracefulDrain

        with GracefulDrain() as drain:
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time_module.perf_counter() + 5.0
            while not drain.triggered:
                assert time_module.perf_counter() < deadline
                time_module.sleep(0.01)
            assert drain.triggered  # no KeyboardInterrupt, just the flag

    def test_noop_off_main_thread(self):
        import signal
        import threading

        from repro.serve.loadgen import GracefulDrain

        before = {s: signal.getsignal(s) for s in GracefulDrain.SIGNALS}
        outcome = {}

        def enter():
            drain = GracefulDrain()
            with drain:
                outcome["installed"] = drain._installed

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join(timeout=5.0)
        assert outcome["installed"] is False
        for signum, previous in before.items():
            assert signal.getsignal(signum) == previous

    def test_closed_loop_honours_stop_event(self, toy_server):
        import threading
        import time as time_module

        server, _ = toy_server
        stop = threading.Event()
        stop.set()  # already drained before the run begins
        begin = time_module.perf_counter()
        stats = closed_loop(
            server,
            "toy",
            64,
            concurrency=2,
            duration_seconds=10.0,
            stop_event=stop,
        )
        assert time_module.perf_counter() - begin < 5.0  # ended early
        assert stats["client_errors"] == 0
