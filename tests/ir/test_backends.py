"""The tiled executor's threaded row blocks and the plan cache under threads.

Covers what the golden/property suites do not: the threaded row-block
scheduler's determinism and admission rule, and the plan-cache
single-flight counters under concurrent cold starts.
"""

import os
import threading

import numpy as np
import pytest

from repro.ir import compile_model, run_plan, run_plan_serial
from repro.ir.backends.numpy_tiled import NumpyTiledBackend


@pytest.fixture(scope="module")
def test_images(digits_small):
    _, test_set = digits_small
    return np.asarray(test_set.images)


class TestThreadedScheduler:
    def test_thread_count_invariance(
        self, monkeypatch, quantized_mlp, test_images
    ):
        """The threaded row-block merge is bitwise the serial result."""
        plan = compile_model(quantized_mlp)
        serial = run_plan_serial(plan, test_images)
        monkeypatch.setenv("REPRO_IR_THREADS", "1")
        single = run_plan(plan, test_images)
        monkeypatch.setenv("REPRO_IR_THREADS", "4")
        threaded = run_plan(plan, test_images)
        np.testing.assert_array_equal(single, serial)
        np.testing.assert_array_equal(threaded, serial)

    def test_schedule_splits_only_rowwise_exact_plans(
        self, monkeypatch, quantized_mlp, trained_mlp, test_images
    ):
        from repro.ir.runtime import ExecutionContext

        monkeypatch.setenv("REPRO_IR_THREADS", "4")
        engine = NumpyTiledBackend()
        q_plan = compile_model(quantized_mlp)
        blocks = engine._schedule(
            q_plan, test_images, list(range(len(test_images))),
            ExecutionContext(q_plan),
        )
        assert len(blocks) > 1
        assert blocks[0][0] == 0 and blocks[-1][1] == len(test_images)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        # Float GEMVs are not rowwise-exact: never split.
        f_plan = compile_model(trained_mlp)
        assert engine._schedule(
            f_plan, test_images, list(range(len(test_images))),
            ExecutionContext(f_plan),
        ) == [(0, len(test_images))]

    def test_thread_budget_follows_cpu_affinity(
        self, monkeypatch, quantized_mlp, test_images
    ):
        """A process allowed one CPU gets one row block, whatever the
        host's CPU count."""
        from repro.ir.runtime import ExecutionContext

        monkeypatch.delenv("REPRO_IR_THREADS", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert len(test_images) >= 64
        plan = compile_model(quantized_mlp)
        assert NumpyTiledBackend()._schedule(
            plan, test_images, list(range(len(test_images))),
            ExecutionContext(plan),
        ) == [(0, len(test_images))]

    def test_small_batches_stay_single_block(self, monkeypatch, quantized_mlp):
        from repro.ir.runtime import ExecutionContext

        monkeypatch.setenv("REPRO_IR_THREADS", "8")
        engine = NumpyTiledBackend()
        plan = compile_model(quantized_mlp)
        tiny = np.zeros((8, 784))
        assert engine._schedule(
            plan, tiny, list(range(8)), ExecutionContext(plan)
        ) == [(0, 8)]


class TestPlanCacheSingleFlight:
    def test_concurrent_cold_calls_compile_once(self, trained_mlp):
        from repro.ir.plan_cache import (
            get_plan,
            plan_cache_stats,
            reset_plan_cache,
        )

        reset_plan_cache()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        plans = [None] * n_threads
        errors = []

        def worker(slot):
            try:
                barrier.wait()
                plans[slot] = get_plan(trained_mlp)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(plan is plans[0] for plan in plans)
        stats = plan_cache_stats()
        assert stats["plan_compiles"] == 1
        assert stats["plan_misses"] == 1
        assert stats["plan_hits"] == n_threads - 1
        reset_plan_cache()

    def test_concurrent_cached_trains_encode_once(self, trained_snn):
        from repro.ir.plan_cache import (
            cached_trains,
            get_plan,
            plan_cache_stats,
            reset_plan_cache,
        )

        reset_plan_cache()
        plan = get_plan(trained_snn)
        images = np.zeros((4, 784))
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(slot):
            try:
                barrier.wait()
                results[slot] = cached_trains(plan, images, persist=False)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result is results[0] for result in results)
        stats = plan_cache_stats()
        assert stats["trains_misses"] == 1
        assert stats["trains_hits"] == n_threads - 1
        reset_plan_cache()
