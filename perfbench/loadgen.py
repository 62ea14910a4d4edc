"""Single-thread load generator that holds nothing per finished request.

The generator runs on the calling thread and starts no thread of its
own, so a 2-CPU host never runs more threads than the program's own
batcher, collectors and shards plus this one.  Every request is a slot
``j`` in arrays allocated when the phase starts; the generator keeps no
reference to a request's future after handing it a completion callback,
so a finished request's future is garbage as soon as the server drops
it.  The callback (run on whichever thread resolves the future) writes
the completion time and label into slot ``j`` and posts ``j`` on a
C-level ``SimpleQueue`` that the generator blocks on.

* :meth:`LoadGenerator.closed_loop` keeps ``outstanding`` requests in
  flight and times each from submit to result.
* :meth:`LoadGenerator.open_loop` sends at a fixed rate and times each
  request from when it was *due*, so a stall in the generator or the
  server is charged to every request it delayed; how late the generator
  itself ran is kept per request.

A request that is shed at submit, fails or times out has completion
time ``inf``: it is infinitely late in every percentile.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

PENDING, OK, FAILED = 0, 1, 2

#: Indices are drawn from the seeded stream in chunks of this many.
_DRAW_CHUNK = 4096


class LoadError(RuntimeError):
    """The server stopped answering: a request outlived the timeout."""


@dataclass
class Phase:
    """One phase's per-request arrays, trimmed to the requests sent."""

    mode: str
    start: float
    end: float
    drained: float
    index: np.ndarray
    #: Closed loop: submit time.  Open loop: due time.
    t_ref: np.ndarray
    t_done: np.ndarray
    status: np.ndarray
    label: np.ndarray
    #: Open loop only: send time minus due time.
    lateness: Optional[np.ndarray]
    generator_cpu_s: float

    @property
    def attempted(self) -> int:
        return int(self.index.size)

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(self.status != OK))

    def latencies_ms(self) -> np.ndarray:
        """Per-request latency; failures are ``inf``."""
        latency = (self.t_done - self.t_ref) * 1e3
        return np.where(self.status == OK, latency, np.inf)


class LoadGenerator:
    """Drives ``send(index) -> Future`` from the calling thread.

    ``n_rows`` and ``seed`` define the request stream: request ``j``
    of a phase carries the ``j``-th draw of a seeded uniform stream
    over ``range(n_rows)``.  ``capacity`` bounds the requests one phase
    may send; running out raises instead of silently capping load.
    """

    def __init__(
        self,
        send: Callable[[int], "object"],
        n_rows: int,
        seed: int,
        capacity: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._send_fn = send
        self._n_rows = int(n_rows)
        self._rng = np.random.default_rng([int(seed), 0x10AD])
        self._capacity = int(capacity)
        self._clock = clock
        self._sleep = sleep
        self._completions: "queue.SimpleQueue[int]" = queue.SimpleQueue()

    # -- per-request bookkeeping -----------------------------------------

    def _allocate(self, n: int, open_loop: bool) -> None:
        self._index = np.empty(n, dtype=np.int32)
        self._t_ref = np.empty(n, dtype=np.float64)
        self._t_done = np.empty(n, dtype=np.float64)
        self._status = np.empty(n, dtype=np.int8)
        self._label = np.empty(n, dtype=np.int16)
        self._lateness = np.empty(n, dtype=np.float64) if open_loop else None
        self._sent = 0

    def _next_index(self, j: int) -> int:
        if j % _DRAW_CHUNK == 0:
            stop = min(j + _DRAW_CHUNK, self._index.size)
            self._index[j:stop] = self._rng.integers(self._n_rows, size=stop - j)
        return int(self._index[j])

    def _on_done(self, j: int, future) -> None:
        self._t_done[j] = self._clock()
        try:
            label = future.result(timeout=0)
        except BaseException:  # noqa: BLE001 - any failure is a failed request
            self._status[j] = FAILED
            self._t_done[j] = np.inf
        else:
            self._label[j] = int(label)
            self._status[j] = OK
        self._completions.put(j)

    def _send(self, t_ref: float) -> bool:
        """Send the next request; False when it failed synchronously."""
        j = self._sent
        if j >= self._index.size:
            raise LoadError(f"phase capacity of {self._index.size} requests exhausted")
        self._sent = j + 1
        self._t_ref[j] = t_ref
        self._status[j] = PENDING
        index = self._next_index(j)
        try:
            future = self._send_fn(index)
        except Exception:  # noqa: BLE001 - shed at submit: infinitely late
            self._status[j] = FAILED
            self._t_done[j] = np.inf
            return False
        future.add_done_callback(partial(self._on_done, j))
        return True

    def _wait_one(self, timeout: float) -> None:
        try:
            self._completions.get(timeout=timeout)
        except queue.Empty:
            raise LoadError(f"no request completed within {timeout}s") from None

    def _phase(self, mode: str, start: float, end: float, cpu0: float) -> Phase:
        n = self._sent
        return Phase(
            mode=mode,
            start=start,
            end=end,
            drained=self._clock(),
            index=self._index[:n],
            t_ref=self._t_ref[:n],
            t_done=self._t_done[:n],
            status=self._status[:n],
            label=self._label[:n],
            lateness=None if self._lateness is None else self._lateness[:n],
            generator_cpu_s=time.thread_time() - cpu0,
        )

    # -- arrival models --------------------------------------------------

    def closed_loop(
        self,
        outstanding: int,
        seconds: float,
        timeout: float = 60.0,
        window: Optional[float] = None,
        on_window: Optional[Callable[[float], None]] = None,
    ) -> Phase:
        """Keep ``outstanding`` requests in flight for ``seconds``.

        With ``window``, ``on_window(now)`` runs on this thread at the
        first completion after each boundary ``start + k * window`` up
        to ``start + seconds``, so callers can sample counters per
        window.
        """
        self._allocate(self._capacity, open_loop=False)
        cpu0 = time.thread_time()
        clock = self._clock
        start = clock()
        end = start + seconds
        tick = start if window else float("inf")
        in_flight = 0
        while in_flight < outstanding and clock() < end:
            if self._send(clock()):
                in_flight += 1
        while in_flight:
            self._wait_one(timeout)
            in_flight -= 1
            now = clock()
            if now >= tick:
                on_window(now)
                while tick <= now:
                    tick += window
                if tick > end + 1e-9:
                    tick = float("inf")
            while now < end:
                if self._send(now):
                    in_flight += 1
                    break
                now = clock()
        return self._phase("closed", start, end, cpu0)

    def open_loop(
        self,
        rate: float,
        seconds: float,
        timeout: float = 60.0,
        window: Optional[float] = None,
        on_window: Optional[Callable[[float], None]] = None,
    ) -> Phase:
        """Send ``rate`` requests per second for ``seconds``, on schedule.

        With ``window``, ``on_window(now)`` runs before the first request
        due in each ``window`` seconds and once after the last send.
        """
        n = max(int(rate * seconds), 1)
        self._allocate(n, open_loop=True)
        cpu0 = time.thread_time()
        clock = self._clock
        interval = 1.0 / rate
        start = clock()
        tick = start if window else float("inf")
        in_flight = 0
        for j in range(n):
            due = start + j * interval
            delay = due - clock()
            if delay > 0:
                self._sleep(delay)
            if due >= tick:
                on_window(clock())
                while tick <= due:
                    tick += window
            self._lateness[j] = clock() - due
            if self._send(due):
                in_flight += 1
        if window:
            on_window(clock())
        for _ in range(in_flight):
            self._wait_one(timeout)
        return self._phase("open", start, start + n * interval, cpu0)
