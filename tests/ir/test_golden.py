"""Per-kind golden tests: one bit-identity assertion per model kind.

These replace the retired pairwise engine-vs-oracle suites: the serial
interpreter is asserted against each kind's retained legacy oracle
once, and the plan executor against the interpreter once, dtypes
included.  The legacy oracles are the one check here that does not
run through the IR's shared instruction walk.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.errors import CompileError
from repro.core.metrics import evaluate
from repro.ir import compile_model, run_plan, run_plan_serial
from repro.snn.batched import predict_batch
from repro.snn.network import SNNTrainer

#: Both executors, for checks that must hold on each of them.
EXECUTORS = pytest.mark.parametrize(
    "execute", [run_plan, run_plan_serial], ids=["run_plan", "serial"]
)


@pytest.fixture(scope="module")
def test_images(digits_small):
    _, test_set = digits_small
    return np.asarray(test_set.images[:48])


def _assert_serial_and_vectorized(model, images, oracle, indices=None):
    plan = compile_model(model)
    serial = run_plan_serial(plan, images, indices=indices)
    np.testing.assert_array_equal(serial, oracle)
    vectorized = run_plan(plan, images, indices=indices)
    assert vectorized.dtype == serial.dtype
    np.testing.assert_array_equal(vectorized, serial)


class TestGoldenPerKind:
    def test_mlp(self, trained_mlp, test_images):
        _assert_serial_and_vectorized(
            trained_mlp, test_images, trained_mlp.predict_images(test_images)
        )

    def test_mlp_q(self, quantized_mlp, test_images):
        _assert_serial_and_vectorized(
            quantized_mlp,
            test_images,
            quantized_mlp.predict_images(test_images),
        )

    def test_snnwot(self, snnwot_model, test_images):
        _assert_serial_and_vectorized(
            snnwot_model, test_images, snnwot_model.predict(test_images)
        )

    def test_snnbp(self, snnbp_model, test_images):
        _assert_serial_and_vectorized(
            snnbp_model, test_images, snnbp_model.predict(test_images)
        )

    def test_snnwt(self, trained_snn, digits_small):
        _, test_set = digits_small
        subset = test_set.take(24)
        oracle = SNNTrainer(trained_snn).predict_serial(subset)
        _assert_serial_and_vectorized(
            trained_snn,
            np.asarray(subset.images),
            oracle,
            indices=list(range(len(subset))),
        )


class TestOneBlock:
    """Large batches run as one block on the calling thread."""

    def test_large_batches_start_no_thread(
        self, monkeypatch, quantized_mlp, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        assert len(images) >= 64
        q_plan = compile_model(quantized_mlp)
        t_plan = compile_model(trained_snn)
        indices = list(range(len(images)))
        mlpq_rows = np.concatenate([images, images])[:128]
        mlpq_serial = run_plan_serial(q_plan, mlpq_rows)
        snnwt_serial = run_plan_serial(t_plan, images, indices=indices)

        def refuse(thread):
            raise AssertionError(f"run_plan started thread {thread.name!r}")

        # However many CPUs the process may use, no batch is split.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        np.testing.assert_array_equal(run_plan(q_plan, mlpq_rows), mlpq_serial)
        np.testing.assert_array_equal(
            run_plan(t_plan, images, indices=indices), snnwt_serial
        )


class TestTrainerPlanEngine:
    def test_predict_engines_agree(self, trained_snn, digits_small):
        _, test_set = digits_small
        subset = test_set.take(24)
        plan_labels = SNNTrainer(trained_snn).predict(subset)
        oracle = predict_batch(trained_snn, subset.images)
        np.testing.assert_array_equal(plan_labels, oracle)

    def test_unknown_engine_rejected(self, trained_snn, digits_small):
        # There is one engine and no argument to choose it.
        _, test_set = digits_small
        trainer = SNNTrainer(trained_snn)
        for engine in ("plan", "legacy", "turbo"):
            with pytest.raises(TypeError):
                trainer.predict(test_set, engine=engine)
            with pytest.raises(TypeError):
                trainer.evaluate(test_set, engine=engine)

    def test_evaluate_routes_through_plan(self, trained_snn, digits_small):
        _, test_set = digits_small
        subset = test_set.take(24)
        plan_eval = SNNTrainer(trained_snn).evaluate(subset)
        oracle = evaluate(
            predict_batch(trained_snn, subset.images),
            subset.labels,
            subset.n_classes,
        )
        assert plan_eval.accuracy == oracle.accuracy
        np.testing.assert_array_equal(plan_eval.confusion, oracle.confusion)


class TestInputChecks:
    """Batch/index problems raise typed errors on both executors."""

    @EXECUTORS
    @pytest.mark.parametrize("n_images,n_indices", [(4, 2), (2, 4)])
    def test_rows_and_indices_must_agree(
        self, execute, n_images, n_indices, trained_snn, digits_small
    ):
        _, test_set = digits_small
        plan = compile_model(trained_snn)
        images = np.asarray(test_set.images[:n_images])
        with pytest.raises(CompileError, match="one per row"):
            execute(plan, images, indices=list(range(n_indices)))

    @EXECUTORS
    @pytest.mark.parametrize("fixture", ["trained_mlp", "quantized_mlp"])
    def test_missing_batch_is_a_typed_error(self, execute, fixture, request):
        plan = compile_model(request.getfixturevalue(fixture))
        with pytest.raises(CompileError, match="expects an input batch"):
            execute(plan, None)

    @EXECUTORS
    def test_negative_index_refused_on_timed_plan(
        self, execute, trained_snn, digits_small
    ):
        _, test_set = digits_small
        plan = compile_model(trained_snn)
        images = np.asarray(test_set.images[:2])
        with pytest.raises(CompileError, match="dataset index per row"):
            execute(plan, images, indices=[0, -1])
