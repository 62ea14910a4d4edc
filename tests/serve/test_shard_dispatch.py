"""Pool dispatch: one batcher thread per shard, least-loaded placement.

A pool-backed server runs one scheduler thread per shard for each
model, so every shard can hold a batch at once; the pool sends each
task to the alive shard with the fewest tasks in flight.  In-process
serving keeps one thread (its runners share the GIL).  These tests pin
the placement, the thread counts, drain/cancel on close with batches
in flight, and requeues after a shard death.
"""

from __future__ import annotations

import re
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ServingError
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import InferenceServer
from repro.serve.loadgen import direct_predictions
from repro.serve.workers import ShardedPool

#: Seconds a wedged shard sleeps; every assertion that needs the wedge
#: to still hold finishes long before it ends.
WEDGE_SECONDS = 2.0


def _batcher_threads(model: str):
    pattern = re.compile(rf"repro-batcher-{re.escape(model)}-\d+$")
    return sorted(
        t.name
        for t in threading.enumerate()
        if pattern.match(t.name) and t.is_alive()
    )


def _await(predicate, timeout: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.01)


class TestLeastLoadedDispatch:
    def test_batches_route_around_a_wedged_shard(
        self, trained_mlp, digits_small
    ):
        """With a batch stuck on wedged shard 0, the next two batches
        both run on shard 1 and finish while the wedge still holds.
        Round-robin would have put the third batch behind the wedge."""
        _, test_set = digits_small
        expected = direct_predictions(
            trained_mlp, test_set.images, range(len(test_set.images))
        )
        with ShardedPool(
            {"mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
            warm=False,
            chaos_hooks=True,
        ) as pool:
            pool.wedge_shard(0, seconds=WEDGE_SECONDS)
            stuck = {}

            def first_batch():
                stuck["out"] = pool.run_batch(
                    "mlp", [0], None, return_shard=True
                )

            thread = threading.Thread(target=first_batch, daemon=True)
            thread.start()
            _await(lambda: pool.stats()["peak_in_flight"] >= 1)
            for index in (1, 2):
                labels, shard_id = pool.run_batch(
                    "mlp", [index], None, return_shard=True
                )
                assert shard_id == 1
                np.testing.assert_array_equal(labels, expected[[index]])
            assert thread.is_alive(), "shard 0 should still be wedged"
            thread.join(timeout=WEDGE_SECONDS + 10.0)
            assert not thread.is_alive()
            labels, shard_id = stuck["out"]
            assert shard_id == 0
            np.testing.assert_array_equal(labels, expected[[0]])
            assert pool.stats()["requeues"] == 0

    def test_peak_in_flight_counts_overlapping_tasks(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        with ShardedPool(
            {"mlp": trained_mlp},
            jobs=2,
            images=test_set.images,
            warm=False,
            chaos_hooks=True,
        ) as pool:
            assert pool.stats()["peak_in_flight"] == 0
            pool.run_batch("mlp", [0], None)
            assert pool.stats()["peak_in_flight"] == 1
            pool.wedge_shard(0, seconds=1.0)
            pool.wedge_shard(1, seconds=1.0)
            threads = [
                threading.Thread(
                    target=pool.run_batch, args=("mlp", [i], None), daemon=True
                )
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
                assert not thread.is_alive()
            assert pool.stats()["peak_in_flight"] == 3


class TestBatcherThreads:
    def test_in_process_server_runs_one_thread_per_model(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        server = InferenceServer.from_models(
            {"inproc-a": trained_mlp, "inproc-b": trained_mlp},
            images=test_set.images,
        )
        try:
            assert _batcher_threads("inproc-a") == ["repro-batcher-inproc-a-0"]
            assert _batcher_threads("inproc-b") == ["repro-batcher-inproc-b-0"]
        finally:
            server.close()
        assert _batcher_threads("inproc-a") == []
        assert _batcher_threads("inproc-b") == []

    def test_pool_server_runs_one_thread_per_shard(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        pool = ShardedPool(
            {"pooled": trained_mlp}, jobs=2, images=test_set.images, warm=False
        )
        server = InferenceServer(pool=pool, images=test_set.images)
        try:
            assert _batcher_threads("pooled") == [
                "repro-batcher-pooled-0",
                "repro-batcher-pooled-1",
            ]
        finally:
            server.close()
        assert _batcher_threads("pooled") == []

    def test_batcher_rejects_zero_threads(self):
        from repro.serve.batcher import MicroBatcher

        with pytest.raises(ServingError):
            MicroBatcher(lambda batch: batch, threads=0)


class TestCloseWithBatchesInFlight:
    """Two batches sit on wedged shards while four more requests queue."""

    def _server(self, model, images, name):
        pool = ShardedPool(
            {name: model},
            jobs=2,
            images=images,
            warm=False,
            chaos_hooks=True,
        )
        server = InferenceServer(
            pool=pool,
            policy=BatchPolicy(max_batch=2, max_wait_us=50_000.0),
            images=images,
        )
        pool.wedge_shard(0, seconds=1.0)
        pool.wedge_shard(1, seconds=1.0)
        futures = [server.submit(name, index=i) for i in range(8)]
        _await(lambda: pool.stats()["peak_in_flight"] == 2)
        return server, futures

    def test_drain_completes_every_admitted_request(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        expected = direct_predictions(trained_mlp, test_set.images, range(8))
        server, futures = self._server(trained_mlp, test_set.images, "drain")
        server.close(drain=True)
        got = [int(f.result(timeout=0)) for f in futures]
        np.testing.assert_array_equal(got, expected)
        assert _batcher_threads("drain") == []

    def test_no_drain_fails_queued_requests_only(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        expected = direct_predictions(trained_mlp, test_set.images, range(8))
        server, futures = self._server(trained_mlp, test_set.images, "cancel")
        server.close(drain=False)
        # The first two batches were on shards: they complete.
        got = [int(f.result(timeout=0)) for f in futures[:4]]
        np.testing.assert_array_equal(got, expected[:4])
        for future in futures[4:]:
            with pytest.raises(ServingError, match="closed before"):
                future.result(timeout=0)
        assert _batcher_threads("cancel") == []


class TestShardDeathWithBatchesInFlight:
    def test_both_batches_on_a_killed_shard_requeue_to_the_survivor(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        batches = [[0, 1], [2, 3], [4, 5], [6, 7]]
        expected = direct_predictions(trained_snn, test_set.images, range(8))
        with ShardedPool(
            {"snnwt": trained_snn},
            jobs=2,
            images=test_set.images,
            chaos_hooks=True,
        ) as pool:
            pool.wedge_shard(0, seconds=60.0)  # killed long before it wakes
            pool.wedge_shard(1, seconds=WEDGE_SECONDS)
            results = {}

            def client(k):
                results[k] = pool.run_batch(
                    "snnwt", batches[k], None, return_shard=True
                )

            threads = [
                threading.Thread(target=client, args=(k,), daemon=True)
                for k in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            # Least-loaded placement puts two batches on each shard.
            _await(lambda: pool.stats()["peak_in_flight"] == 4)
            pool.kill_shard(0)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert sorted(results) == [0, 1, 2, 3]
            for k, (labels, shard_id) in results.items():
                assert shard_id == 1
                np.testing.assert_array_equal(labels, expected[batches[k]])
            stats = pool.stats()
            assert stats["requeues"] == 2
            assert stats["alive_shards"] == [1]
