"""MicroBatcher: coalescing, positional routing, shedding, drain."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.errors import Overloaded, ServingError
from repro.serve.batcher import BatchPolicy, MicroBatcher


class GatedRunner:
    """A run_batch that can be blocked to control coalescing in tests."""

    def __init__(self, fn=None):
        self.fn = fn or (lambda payload: payload * 2)
        self.batches = []
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def __call__(self, payloads):
        self.entered.set()
        self.gate.wait(timeout=10.0)
        self.batches.append(list(payloads))
        return [self.fn(p) for p in payloads]


def _drain_entered(runner):
    runner.entered.clear()


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_wait_us": -1.0}, {"max_queue": 0}],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ServingError):
            BatchPolicy(**kwargs).validate()

    def test_defaults_validate(self):
        policy = BatchPolicy().validate()
        assert policy.max_batch == 16


class TestCoalescing:
    def test_queued_requests_coalesce_into_one_batch(self):
        """Requests queued while the engine is busy run as one batch."""
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=4, max_wait_us=50_000.0)
        )
        try:
            runner.gate.clear()
            first = batcher.submit(100)  # occupies the scheduler
            assert runner.entered.wait(timeout=5.0)
            futures = [batcher.submit(j) for j in range(4)]
            runner.gate.set()
            assert first.result(timeout=10.0) == 200
            assert [f.result(timeout=10.0) for f in futures] == [0, 2, 4, 6]
            # The four queued requests ran as one full batch.
            assert [0, 1, 2, 3] in runner.batches
        finally:
            batcher.close()

    def test_results_route_positionally(self):
        runner = GatedRunner(fn=lambda p: f"label-{p}")
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=8, max_wait_us=10_000.0)
        )
        try:
            futures = {j: batcher.submit(j) for j in range(20)}
            for j, future in futures.items():
                assert future.result(timeout=10.0) == f"label-{j}"
        finally:
            batcher.close()

    def test_max_batch_one_never_coalesces(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=1, max_wait_us=50_000.0)
        )
        try:
            futures = [batcher.submit(j) for j in range(5)]
            for j, future in enumerate(futures):
                assert future.result(timeout=10.0) == j * 2
            assert all(len(batch) == 1 for batch in runner.batches)
        finally:
            batcher.close()

    def test_window_expiry_dispatches_partial_batch(self):
        """A lone request must not wait for max_batch peers forever."""
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=64, max_wait_us=1000.0)
        )
        try:
            assert batcher.submit(3).result(timeout=10.0) == 6
        finally:
            batcher.close()


class TestAdmissionControl:
    def test_full_queue_sheds_with_overloaded(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=1, max_wait_us=0.0, max_queue=2)
        )
        try:
            runner.gate.clear()
            blocked = batcher.submit(0)  # in flight, queue empty again
            assert runner.entered.wait(timeout=5.0)
            queued = [batcher.submit(j) for j in (1, 2)]  # fills the queue
            with pytest.raises(Overloaded):
                batcher.submit(3)
            assert batcher.metrics.shed == 1
            runner.gate.set()
            assert blocked.result(timeout=10.0) == 0
            assert [f.result(timeout=10.0) for f in queued] == [2, 4]
        finally:
            batcher.close()

    def test_shed_request_is_not_enqueued(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=1, max_wait_us=0.0, max_queue=1)
        )
        try:
            runner.gate.clear()
            batcher.submit(0)
            assert runner.entered.wait(timeout=5.0)
            batcher.submit(1)
            with pytest.raises(Overloaded):
                batcher.submit(2)
            assert batcher.queue_depth() == 1
            runner.gate.set()
        finally:
            batcher.close()


class TestFailureRouting:
    def test_runner_exception_fails_only_that_batch(self):
        calls = {"n": 0}

        def flaky(payloads):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient engine failure")
            return [p * 2 for p in payloads]

        batcher = MicroBatcher(
            flaky, BatchPolicy(max_batch=1, max_wait_us=0.0)
        )
        try:
            first = batcher.submit(1)
            with pytest.raises(RuntimeError):
                first.result(timeout=10.0)
            assert batcher.submit(2).result(timeout=10.0) == 4
            assert batcher.metrics.failed == 1
        finally:
            batcher.close()

    def test_result_count_mismatch_is_a_serving_error(self):
        batcher = MicroBatcher(
            lambda payloads: [0] * (len(payloads) + 1),
            BatchPolicy(max_batch=1, max_wait_us=0.0),
        )
        try:
            with pytest.raises(ServingError):
                batcher.submit(1).result(timeout=10.0)
        finally:
            batcher.close()


class TestLifecycle:
    def test_drain_completes_queued_requests(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=2, max_wait_us=50_000.0)
        )
        runner.gate.clear()
        head = batcher.submit(0)
        assert runner.entered.wait(timeout=5.0)
        tail = [batcher.submit(j) for j in (1, 2, 3)]
        runner.gate.set()
        batcher.close(drain=True)
        assert head.result(timeout=0) == 0
        assert [f.result(timeout=0) for f in tail] == [2, 4, 6]

    def test_no_drain_fails_queued_requests(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=1, max_wait_us=0.0)
        )
        runner.gate.clear()
        in_flight = batcher.submit(0)
        assert runner.entered.wait(timeout=5.0)
        abandoned = [batcher.submit(j) for j in (1, 2)]
        runner.gate.set()
        batcher.close(drain=False)
        assert in_flight.result(timeout=10.0) == 0  # batch in flight finishes
        for future in abandoned:
            with pytest.raises(ServingError):
                future.result(timeout=0)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(GatedRunner(), BatchPolicy(max_batch=1))
        batcher.close()
        with pytest.raises(ServingError):
            batcher.submit(1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(GatedRunner(), BatchPolicy(max_batch=1))
        batcher.close()
        batcher.close()


class TestMetricsWiring:
    def test_batcher_feeds_metrics(self):
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=4, max_wait_us=10_000.0)
        )
        try:
            futures = [batcher.submit(j) for j in range(8)]
            for future in futures:
                future.result(timeout=10.0)
        finally:
            batcher.close()
        snapshot = batcher.metrics.snapshot()
        assert snapshot["submitted"] == 8
        assert snapshot["completed"] == 8
        assert snapshot["failed"] == 0
        assert snapshot["latency_ms"]["count"] == 8
        assert sum(
            int(size) * count
            for size, count in snapshot["batch_size_histogram"].items()
        ) == 8


class TestSchedulerThreads:
    def test_second_thread_does_not_split_an_open_window(self):
        """A request arriving while one thread's batching window is
        open joins that batch; the idle second thread waits its turn
        instead of starting a batch of its own."""
        runner = GatedRunner()
        batcher = MicroBatcher(
            runner, BatchPolicy(max_batch=4, max_wait_us=500_000.0), threads=2
        )
        try:
            futures = [batcher.submit(0)]
            time.sleep(0.02)  # the window is open, the batch is not full
            futures.append(batcher.submit(1))
            time.sleep(0.02)
            futures += [batcher.submit(2), batcher.submit(3)]
            assert [f.result(timeout=10.0) for f in futures] == [0, 2, 4, 6]
        finally:
            batcher.close()
        assert runner.batches == [[0, 1, 2, 3]]

    def test_four_threads_answer_every_request_exactly_once(self):
        """More scheduler threads than cores, with a tiny GIL switch
        interval: batches overlap, yet every request resolves once to
        its own answer, no batch exceeds max_batch, and the metrics
        count every row."""
        lock = threading.Lock()
        running = [0, 0]  # (now, peak) batches inside run_batch
        sizes = []

        def run_batch(payloads):
            with lock:
                running[0] += 1
                running[1] = max(running)
                sizes.append(len(payloads))
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return [p * 2 for p in payloads]

        batcher = MicroBatcher(
            run_batch,
            BatchPolicy(max_batch=8, max_wait_us=1000.0),
            name="stress",
            threads=4,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = {}

            def client(base):
                for j in range(base, base + 100):
                    futures[j] = batcher.submit(j)

            clients = [
                threading.Thread(target=client, args=(100 * k,))
                for k in range(4)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            answers = {j: f.result(timeout=10.0) for j, f in futures.items()}
        finally:
            batcher.close()
            sys.setswitchinterval(interval)
        assert answers == {j: 2 * j for j in range(400)}
        assert running[1] >= 2
        assert sum(sizes) == 400 and max(sizes) <= 8
        snapshot = batcher.metrics.snapshot()
        assert snapshot["completed"] == 400
        assert snapshot["latency_ms"]["count"] == 400
        assert batcher.service_estimate() > 0.0
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-batcher-stress-")
        ]
