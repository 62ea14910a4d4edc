"""Plan memo, train bundles, and the content-addressed encode cache."""

import threading

import numpy as np
import pytest

from repro.ir import (
    compile_model,
    get_plan,
    plan_cache_stats,
    reset_plan_cache,
    run_plan,
)
from repro.ir.plan_cache import (
    cached_trains,
    context_for,
    encode_signature,
    pack_trains,
    trains_arrays_for_shipping,
    trains_key,
    unpack_trains,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


class TestPlanMemo:
    def test_compiles_once_per_object(self, trained_mlp):
        first = get_plan(trained_mlp)
        second = get_plan(trained_mlp)
        assert second is first
        stats = plan_cache_stats()
        assert stats["plan_hits"] == 1
        assert stats["plan_misses"] == 1
        assert stats["plan_compiles"] == 1

    def test_reset_clears_memo_and_counters(self, trained_mlp):
        get_plan(trained_mlp)
        reset_plan_cache()
        assert all(v == 0 for v in plan_cache_stats().values())
        get_plan(trained_mlp)
        assert plan_cache_stats()["plan_compiles"] == 1

    def test_failures_not_cached(self, trained_snn):
        from repro.core.errors import CompileError

        class _Injector:
            null = False

        model = type(trained_snn).__new__(type(trained_snn))
        model.__dict__.update(trained_snn.__dict__)
        model.fault_injector = _Injector()
        with pytest.raises(CompileError):
            get_plan(model, kind="snnwt")
        model.fault_injector = None
        assert get_plan(model, kind="snnwt").kind == "snnwt"


class TestPlanCacheSingleFlight:
    def test_concurrent_cold_calls_compile_once(self, trained_mlp):
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

    def test_concurrent_cached_trains_encode_once(self, trained_snn):
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


class TestTrainBundles:
    def test_pack_unpack_roundtrip(self, trained_snn, digits_small):
        _, test_set = digits_small
        images = np.asarray(test_set.images[:6])
        plan = compile_model(trained_snn)
        ctx = context_for(plan)
        trains = ctx.trains_for(images, list(range(len(images))))
        arrays = pack_trains(trains, range(len(images)))
        rebuilt = unpack_trains(arrays)
        assert sorted(rebuilt) == list(range(len(images)))
        for i, train in enumerate(trains):
            np.testing.assert_array_equal(rebuilt[i].times, train.times)
            np.testing.assert_array_equal(rebuilt[i].inputs, train.inputs)
            np.testing.assert_array_equal(
                rebuilt[i].modulation, train.modulation
            )
            assert rebuilt[i].n_inputs == train.n_inputs
            assert rebuilt[i].duration == train.duration

    def test_cached_trains_counts_hits(self, trained_snn, digits_small):
        _, test_set = digits_small
        images = np.asarray(test_set.images[:4])
        plan = compile_model(trained_snn)
        cached_trains(plan, images)
        first = plan_cache_stats()
        cached_trains(plan, images)
        second = plan_cache_stats()
        assert first["trains_misses"] == 1
        assert second["trains_hits"] == 1
        assert second["trains_misses"] == 1

    def test_disk_bundle_survives_memo_reset(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images[:4])
        plan = compile_model(trained_snn)
        shipped = trains_arrays_for_shipping(plan, images)
        reset_plan_cache()
        # The in-memory memo is gone; the ArrayBundleCache bundle is
        # not, so the re-read must reproduce the same CSR arrays.
        again = trains_arrays_for_shipping(plan, images)
        assert set(again) == set(shipped)
        for name, array in shipped.items():
            np.testing.assert_array_equal(again[name], array)

    def test_warm_context_serves_without_reencoding(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images[:8])
        plan = compile_model(trained_snn)
        ctx = context_for(plan, images, warm=True)
        assert ctx.cached_train_count() == len(images)
        cold = run_plan(plan, images, indices=list(range(len(images))))
        warm = run_plan(
            plan, images, indices=list(range(len(images))), ctx=ctx
        )
        np.testing.assert_array_equal(warm, cold)


class TestEncodeSignature:
    def test_weight_independent(self, trained_snn):
        plan = compile_model(trained_snn)
        swapped = type(trained_snn).__new__(type(trained_snn))
        swapped.__dict__.update(trained_snn.__dict__)
        swapped.weights = np.asarray(trained_snn.weights) * 0.5
        plan_swapped = compile_model(swapped, kind="snnwt")
        assert encode_signature(plan_swapped) == encode_signature(plan)
        images = np.zeros((2, plan.consts["weights"].shape[1]))
        assert trains_key(plan_swapped, images) == trains_key(plan, images)

    def test_rejects_plans_without_encode_metadata(self, trained_mlp):
        from repro.core.errors import CompileError

        with pytest.raises(CompileError):
            encode_signature(compile_model(trained_mlp))
