"""The generator holds no finished request and starts no thread."""

import gc
import threading
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from perfbench.loadgen import FAILED, OK, LoadGenerator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class AsyncServer:
    """Resolves futures on its own thread, started before the generator."""

    def __init__(self, delay=0.0005):
        self.refs = []
        self.pending = []
        self.lock = threading.Condition()
        self.delay = delay
        self.closed = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def submit(self, index):
        future = Future()
        self.refs.append(weakref.ref(future))
        with self.lock:
            self.pending.append((future, index))
            self.lock.notify()
        return future

    def _serve(self):
        import time

        while True:
            with self.lock:
                while not self.pending and not self.closed:
                    self.lock.wait()
                if self.closed and not self.pending:
                    return
                batch, self.pending = self.pending, []
            time.sleep(self.delay)
            for future, index in batch:
                future.set_result(index % 7)
            del batch, future

    def close(self):
        with self.lock:
            self.closed = True
            self.lock.notify()
        self.thread.join(5)
        assert not self.thread.is_alive()


def test_completed_futures_are_collectable_and_no_thread_is_started():
    server = AsyncServer()
    before = set(threading.enumerate())
    caller = threading.get_ident()
    seen_threads = []

    def send(index):
        assert threading.get_ident() == caller
        seen_threads.append(set(threading.enumerate()))
        return server.submit(index)

    phase = LoadGenerator(send, n_rows=50, seed=3, capacity=100_000).closed_loop(
        outstanding=8, seconds=0.3
    )
    server.close()
    gc.collect()
    assert phase.attempted > 8 and phase.failed == 0
    assert all(threads <= before for threads in seen_threads)
    assert all(ref() is None for ref in server.refs)
    assert np.array_equal(phase.label, phase.index % 7)


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    futures = []

    def send(index):
        if len(futures) == 1:
            clock.now += 0.35  # the second send stalls the generator
        future = Future()
        futures.append(future)
        future.set_result(index)
        return future

    generator = LoadGenerator(send, 10, 0, 100, clock=clock, sleep=clock.sleep)
    phase = generator.open_loop(rate=10.0, seconds=1.0)
    assert phase.attempted == 10
    assert phase.t_ref[3] == pytest.approx(0.3)
    # Request 1 was due at 0.1 and sent at 0.1; the stall inside its send
    # delays requests 2 and 3, which were due at 0.2 and 0.3.
    assert phase.lateness[2] == pytest.approx(0.25)
    assert phase.lateness[3] == pytest.approx(0.15)
    assert phase.latencies_ms()[3] == pytest.approx(150.0)
    assert phase.lateness[5] == pytest.approx(0.0)


def test_synchronous_shed_counts_as_infinitely_late():
    calls = []

    def send(index):
        calls.append(index)
        if len(calls) % 2 == 0:
            raise RuntimeError("shed")
        future = Future()
        future.set_result(1)
        return future

    clock = FakeClock()
    phase = LoadGenerator(send, 5, 0, 100, clock=clock, sleep=clock.sleep).open_loop(10.0, 1.0)
    assert phase.failed == 5
    assert list(phase.status) == [OK, FAILED] * 5
    assert np.isinf(phase.latencies_ms()[1::2]).all()


def test_capacity_exhaustion_raises_instead_of_capping_load():
    from perfbench.loadgen import LoadError

    def send(index):
        future = Future()
        future.set_result(0)
        return future

    with pytest.raises(LoadError):
        LoadGenerator(send, 5, 0, capacity=10).closed_loop(outstanding=2, seconds=5.0)
