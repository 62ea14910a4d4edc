"""ShardedPool: zero-copy rebuilds, bit-identity, shard-death recovery.

The acceptance properties of the serving layer's process backend:

* a plan rebuilt in a worker from read-only shared-memory views
  predicts bit-identically to the parent's own model, for every
  plan kind;
* killing a shard mid-service degrades capacity, never correctness —
  in-flight and subsequent requests complete on the survivors;
* killing *every* shard turns requests into :class:`ServingError`,
  not a hang.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.errors import CompileError, ServingError
from repro.mlp.quantized import QuantizedMLP
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import InferenceServer
from repro.serve.shm import SharedArrayBundle
from repro.serve.workers import ShardedPool, _publish_plan, _rebuild_plan_runner
from repro.snn.batched import predict_batch
from repro.snn.snn_bp import train_snn_bp
from repro.snn.snn_wot import SNNWithoutTime


def _round_trip(name, model, images, warm=False):
    """publish -> shm -> rebuild one plan, run it on every row."""
    arrays = {}
    spec = _publish_plan(
        name, model, arrays, seed=None, images=images, warm=warm
    )
    indices = list(range(len(images)))
    with SharedArrayBundle.create(arrays) as bundle:
        runner = _rebuild_plan_runner(name, spec, bundle)
        shipped = runner.precode(indices, images)
        return runner.run(indices, images), shipped


class TestRebuildFidelity:
    """publish -> shm -> rebuild is exact for every plan kind."""

    def test_snnwt_round_trip(self, trained_snn, digits_small):
        _, test_set = digits_small
        images = np.asarray(test_set.images[:20])
        got, encoded = _round_trip("snnwt", trained_snn, images, warm=True)
        # The shipped trains arrived preloaded: nothing left to encode.
        assert encoded == 0
        np.testing.assert_array_equal(got, predict_batch(trained_snn, images))

    def test_snnwot_round_trip(self, trained_snn, digits_small):
        _, test_set = digits_small
        model = SNNWithoutTime(trained_snn)
        got, _ = _round_trip("snnwot", model, test_set.images)
        np.testing.assert_array_equal(got, model.predict(test_set.images))

    def test_snnbp_round_trip(self, snn_config_small, digits_small):
        train_set, test_set = digits_small
        model = train_snn_bp(snn_config_small, train_set, epochs=2)
        got, _ = _round_trip("snnbp", model, test_set.images)
        np.testing.assert_array_equal(got, model.predict(test_set.images))

    def test_mlp_round_trips(self, trained_mlp, digits_small):
        _, test_set = digits_small
        quantized = QuantizedMLP(trained_mlp)
        for name, model in (("mlp", trained_mlp), ("mlp-q", quantized)):
            got, _ = _round_trip(name, model, test_set.images)
            np.testing.assert_array_equal(
                got, model.predict_images(test_set.images)
            )

    def test_unpublishable_model_raises(self):
        with pytest.raises(ServingError, match="'bogus'") as info:
            _publish_plan("bogus", object(), {}, None, None, False)
        assert isinstance(info.value.__cause__, CompileError)


class TestPoolServing:
    def test_pool_predictions_are_bit_identical(
        self, trained_snn, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        reference_snn = predict_batch(trained_snn, test_set.images)
        reference_mlp = np.asarray(trained_mlp.predict_images(test_set.images))
        with ShardedPool(
            {"snnwt": trained_snn, "mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
        ) as pool:
            assert pool.alive_shards() == [0, 1]
            assert pool.has_dataset and pool.has_row(0)
            assert not pool.has_row(len(test_set.images))
            assert pool.nbytes_shared() > 0
            indices = list(range(0, len(test_set.images), 5))
            # Index-only tasks: workers resolve rows from shared memory.
            got_snn = pool.run_batch("snnwt", indices, None)
            got_mlp = pool.run_batch("mlp", indices, None)
            np.testing.assert_array_equal(got_snn, reference_snn[indices])
            np.testing.assert_array_equal(got_mlp, reference_mlp[indices])
            # Explicit-rows tasks agree with index-only tasks.
            got_rows = pool.run_batch(
                "snnwt", indices, test_set.images[indices]
            )
            np.testing.assert_array_equal(got_rows, reference_snn[indices])

    def test_index_only_task_without_dataset_fails_cleanly(self, trained_mlp):
        with ShardedPool({"mlp": trained_mlp}, jobs=1, warm=False) as pool:
            with pytest.raises(ServingError, match="worker task failed"):
                pool.run_batch("mlp", [0, 1], None)

    def test_unknown_model_raises(self, trained_mlp):
        with ShardedPool({"mlp": trained_mlp}, jobs=1, warm=False) as pool:
            with pytest.raises(ServingError):
                pool.run_batch("resnet", [0], np.zeros((1, 4)))

    def test_constructor_validation(self, trained_mlp):
        with pytest.raises(ServingError):
            ShardedPool({}, jobs=1)
        with pytest.raises(ServingError):
            ShardedPool({"mlp": trained_mlp}, jobs=0)


class TestShardDeath:
    def test_surviving_shards_absorb_a_killed_shard(
        self, trained_snn, digits_small
    ):
        """Kill one of two shards, then keep serving: every request
        completes on the survivor with unchanged answers — including
        requests dispatched onto the dead shard before the collector
        notices (the requeue path)."""
        _, test_set = digits_small
        reference = predict_batch(trained_snn, test_set.images)
        with ShardedPool(
            {"snnwt": trained_snn}, jobs=2, images=test_set.images
        ) as pool:
            warmup = pool.run_batch("snnwt", [0, 1], None)
            np.testing.assert_array_equal(warmup, reference[[0, 1]])
            pool.kill_shard(0)
            # Immediately hammer the pool; both shards are idle between
            # these serial batches, so the tie rotation still targets
            # shard 0 until its collector detects the death and
            # requeues: this exercises recovery, not just routing.
            for index in range(10):
                got = pool.run_batch("snnwt", [index], None)
                np.testing.assert_array_equal(got, reference[[index]])
            deadline = time.perf_counter() + 5.0
            while pool.alive_shards() != [1]:
                assert time.perf_counter() < deadline
                time.sleep(0.05)

    def test_all_shards_dead_raises_instead_of_hanging(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        pool = ShardedPool(
            {"mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
            warm=False,
            task_timeout=30.0,
        )
        try:
            pool.kill_shard(0)
            pool.kill_shard(1)
            deadline = time.perf_counter() + 5.0
            while pool.alive_shards():
                assert time.perf_counter() < deadline
                time.sleep(0.05)
            start = time.perf_counter()
            with pytest.raises(ServingError):
                pool.run_batch("mlp", [0], None)
            assert time.perf_counter() - start < 5.0  # failed fast
        finally:
            pool.close()

    def test_server_over_pool_survives_shard_death(
        self, trained_snn, digits_small
    ):
        """End to end: InferenceServer routed onto the pool keeps
        serving bit-identical answers after a shard is killed."""
        _, test_set = digits_small
        reference = predict_batch(trained_snn, test_set.images)
        pool = ShardedPool(
            {"snnwt": trained_snn}, jobs=2, images=test_set.images
        )
        server = InferenceServer(
            pool=pool,
            policy=BatchPolicy(max_batch=4, max_wait_us=1000.0),
            images=test_set.images,
        )
        try:
            before = server.predict_many("snnwt", indices=[3, 1, 4])
            np.testing.assert_array_equal(before, reference[[3, 1, 4]])
            pool.kill_shard(1)
            after = server.predict_many("snnwt", indices=[1, 5, 9, 2, 6])
            np.testing.assert_array_equal(after, reference[[1, 5, 9, 2, 6]])
        finally:
            server.close()


class TestReliability:
    """PR5 hardening: quarantine, deadline triage, counted no-ops."""

    def test_poison_task_quarantined_then_fast_fails(
        self, trained_mlp, digits_small
    ):
        from repro.core.errors import PoisonedRequest
        from repro.serve.workers import POISON_MODEL

        _, test_set = digits_small
        with ShardedPool(
            {"mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
            warm=False,
            chaos_hooks=True,
            max_task_retries=0,
        ) as pool:
            with pytest.raises(PoisonedRequest, match="quarantined"):
                pool.run_batch(POISON_MODEL, [0], None)
            stats = pool.stats()
            assert stats["quarantined"] == 1
            deaths_after_first = stats["shard_deaths"]
            assert deaths_after_first >= 1
            # The identical signature now fast-fails without being
            # dispatched: no additional shard dies for it.
            with pytest.raises(PoisonedRequest, match="rejected"):
                pool.run_batch(POISON_MODEL, [0], None)
            stats = pool.stats()
            assert stats["quarantine_rejections"] == 1
            assert stats["shard_deaths"] == deaths_after_first
            # Ordinary work still serves on the survivor.
            got = pool.run_batch("mlp", [3], None)
            expected = np.asarray(
                trained_mlp.predict_images(test_set.images[[3]])
            )
            np.testing.assert_array_equal(got, expected)

    def test_expired_deadline_shed_before_dispatch(
        self, trained_mlp, digits_small
    ):
        from repro.core.errors import DeadlineExceeded

        _, test_set = digits_small
        with ShardedPool(
            {"mlp": trained_mlp}, jobs=1, images=test_set.images, warm=False
        ) as pool:
            with pytest.raises(DeadlineExceeded, match="before dispatch"):
                pool.run_batch(
                    "mlp", [0], None, deadline=time.perf_counter() - 0.01
                )
            stats = pool.stats()
            assert stats["deadline_shed"] == 1
            assert stats["shard_deaths"] == 0  # no shard consumed work

    def test_in_flight_deadline_shed_on_shard_death(
        self, trained_mlp, digits_small
    ):
        """A task queued behind a wedged shard whose deadline passes
        must be shed with DeadlineExceeded when the shard dies — not
        handed doomed to a survivor."""
        import threading

        from repro.core.errors import DeadlineExceeded

        _, test_set = digits_small
        with ShardedPool(
            {"mlp": trained_mlp},
            jobs=1,
            images=test_set.images,
            warm=False,
            chaos_hooks=True,
        ) as pool:
            pool.wedge_shard(0, seconds=3.0)
            time.sleep(0.1)  # let the worker enter its wedge sleep
            outcome = {}

            def doomed():
                try:
                    pool.run_batch(
                        "mlp", [0], None,
                        deadline=time.perf_counter() + 0.2,
                    )
                    outcome["result"] = "completed"
                except BaseException as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=doomed, daemon=True)
            thread.start()
            time.sleep(0.5)  # deadline passes while the shard is wedged
            pool.kill_shard(0)
            thread.join(timeout=10.0)
            assert isinstance(outcome.get("error"), DeadlineExceeded)
            assert "in flight" in str(outcome["error"])
            assert pool.stats()["deadline_shed"] >= 1

    def test_requeued_tasks_complete_and_are_counted(
        self, trained_mlp, digits_small
    ):
        """Kill one of two shards while tasks queue behind a wedge on
        it: every future still resolves with the right answer and the
        requeue counter records the handoffs."""
        import threading

        _, test_set = digits_small
        reference = np.asarray(trained_mlp.predict_images(test_set.images))
        with ShardedPool(
            {"mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
            warm=False,
            chaos_hooks=True,
            max_task_retries=2,
        ) as pool:
            pool.wedge_shard(0, seconds=3.0)
            time.sleep(0.1)
            results = {}

            def client(index):
                results[index] = pool.run_batch("mlp", [index], None)

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            pool.kill_shard(0)  # tasks stuck behind the wedge requeue
            for thread in threads:
                thread.join(timeout=15.0)
            assert sorted(results) == list(range(6))
            for index, got in results.items():
                np.testing.assert_array_equal(got, reference[[index]])
            assert pool.stats()["requeues"] >= 1

    def test_duplicate_completion_is_a_counted_no_op(
        self, trained_mlp, digits_small
    ):
        """A result message for an already-resolved task must not
        raise or double-resolve anything — it is counted and dropped."""
        _, test_set = digits_small
        with ShardedPool(
            {"mlp": trained_mlp}, jobs=1, images=test_set.images, warm=False
        ) as pool:
            shard = pool._shards[0]
            pool._handle(
                shard, ("result", 0, 999_999, np.asarray([1]))
            )  # unknown task id: the duplicate-after-requeue shape
            assert pool.stats()["duplicate_completions"] == 1
            # The pool still serves normally afterwards.
            got = pool.run_batch("mlp", [0], None)
            expected = np.asarray(
                trained_mlp.predict_images(test_set.images[[0]])
            )
            np.testing.assert_array_equal(got, expected)
