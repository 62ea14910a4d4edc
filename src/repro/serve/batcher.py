"""Dynamic micro-batching scheduler.

Single-image requests arrive one at a time; the batched engines
(:mod:`repro.snn.batched`, the GEMM clean paths) are fastest when fed
many images at once.  :class:`MicroBatcher` bridges the two: callers
``submit()`` individual payloads and immediately receive a
:class:`concurrent.futures.Future`; scheduler threads coalesce queued
payloads into batches under a ``max_batch`` / ``max_wait_us`` policy
and run each through one batched-engine call, then route each result
back to its future positionally.

One scheduler thread serves an in-process engine: runners share the
interpreter's GIL, so a second batch in flight would only contend for
it.  A pool-backed server gives each model one thread per shard, so
the next batch forms and dispatches while the previous one is still
on a shard; formation stays serialized (one thread fills a window at
a time), so closed-loop batches still run full.

Correctness guarantees:

* **Deterministic, bit-identical routing.**  Result ``i`` of the
  batch call answers request ``i`` of the batch — and because every
  model runner derives per-request randomness from the request's own
  ``index`` (``child_rng(seed, stream, index)``, the PR2 scheme), the
  *value* of each result is independent of which requests happened to
  be coalesced together.  Dynamic batching can change latency, never
  answers.  (Asserted by ``tests/serve/test_engine.py`` and the PR4
  bench.)
* **Bounded memory.**  The queue holds at most ``max_queue`` pending
  requests; beyond that, ``submit`` sheds with
  :class:`~repro.core.errors.Overloaded` instead of buffering without
  bound.
* **Deadline propagation.**  ``submit(payload, deadline=...)`` attaches
  an absolute deadline (``time.perf_counter`` seconds).  Expired work
  is *shed* with a typed
  :class:`~repro.core.errors.DeadlineExceeded` — at submission when
  already expired, and at batch formation when the request's deadline
  has passed *or* cannot be met by the next batch (estimated from an
  EWMA of recent batch service times).  A doomed request therefore
  never consumes engine or shard work, and is never silently dropped:
  its future always carries the typed error.  Sheds are counted as
  ``deadline_shed`` in :class:`~repro.serve.metrics.ServingMetrics`.
* **Graceful drain.**  ``close(drain=True)`` (the default) stops
  admissions, lets the schedulers finish every queued request, then
  joins every thread.  ``close(drain=False)`` cancels queued requests
  with :class:`~repro.core.errors.ServingError`.

The latency policy mirrors what GPU inference servers call *dynamic
batching*: the first queued request opens a batching window of
``max_wait_us``; the batch is dispatched as soon as it is full
(``max_batch``) or the window expires, whichever comes first.  Under
load the window never expires — the queue refills faster than the
engine drains it, so batches run full and the wait cost vanishes.
At low load the worst-case added latency is exactly ``max_wait_us``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import DeadlineExceeded, Overloaded, ServingError
from .metrics import ServingMetrics

#: EWMA smoothing factor for the batch service-time estimate used by
#: the can't-make-its-deadline shed (higher = faster adaptation).
_SERVICE_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic micro-batching scheduler.

    Attributes:
        max_batch: largest coalesced batch handed to the engine.
        max_wait_us: batching window opened by the first queued
            request, in microseconds.  0 dispatches immediately with
            whatever is queued (latency-optimal, throughput-pessimal).
        max_queue: admission-control bound on queued requests;
            ``submit`` beyond it raises ``Overloaded``.
    """

    max_batch: int = 16
    max_wait_us: float = 2000.0
    max_queue: int = 1024

    def validate(self) -> "BatchPolicy":
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ServingError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.max_queue < 1:
            raise ServingError(f"max_queue must be >= 1, got {self.max_queue}")
        return self


class _Pending:
    """One queued request: payload + future + timestamps + deadline."""

    __slots__ = ("payload", "future", "enqueued_at", "deadline")

    def __init__(
        self, payload: Any, enqueued_at: float, deadline: Optional[float] = None
    ):
        self.payload = payload
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.deadline = deadline


class MicroBatcher:
    """Coalesces submitted payloads into batched ``run_batch`` calls.

    :class:`~repro.serve.engine.InferenceServer` starts one scheduler
    thread per pool shard, so every shard can hold a batch while the
    pool sends each to its least-loaded shard; in-process serving keeps
    one thread, since its runners share the GIL.

    Args:
        run_batch: ``fn(payloads: list) -> sequence`` returning one
            result per payload, positionally aligned.  Runs on a
            scheduler thread; exceptions fail that batch's futures.
            With ``threads > 1`` it must be safe to call concurrently.
        policy: the :class:`BatchPolicy`.
        metrics: optional :class:`ServingMetrics` receiving queue /
            batch / latency observations.
        name: thread-name infix for diagnostics
            (``repro-batcher-<name>-<k>``).
        threads: scheduler threads, i.e. batches that may be in
            ``run_batch`` at once.  Only one thread forms a batch at a
            time; the others wait their turn, then dispatch while
            earlier batches are still running.
    """

    def __init__(
        self,
        run_batch: Callable[[List[Any]], Sequence[Any]],
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[ServingMetrics] = None,
        name: str = "model",
        threads: int = 1,
    ):
        if threads < 1:
            raise ServingError(f"threads must be >= 1, got {threads}")
        self.policy = (policy or BatchPolicy()).validate()
        self.metrics = metrics if metrics is not None else ServingMetrics(
            self.policy.max_batch
        )
        self._run_batch = run_batch
        self._service_ewma = 0.0
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: held by the one thread filling a batching window, so the
        #: others cannot split its batch.
        self._forming = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"repro-batcher-{name}-{k}", daemon=True
            )
            for k in range(threads)
        ]
        for thread in self._threads:
            thread.start()

    # -- client side ----------------------------------------------------

    def submit(self, payload: Any, deadline: Optional[float] = None) -> Future:
        """Enqueue one payload; returns its future.

        ``deadline`` is an absolute ``time.perf_counter`` timestamp;
        an already-expired deadline sheds immediately with
        :class:`DeadlineExceeded` (the request is not enqueued).
        Raises :class:`Overloaded` when the queue is at ``max_queue``
        (the request is *not* enqueued) and :class:`ServingError`
        after :meth:`close`.
        """
        now = time.perf_counter()
        with self._wake:
            if self._closed:
                raise ServingError("batcher is closed; no new requests accepted")
            if deadline is not None and now >= deadline:
                self.metrics.record_deadline_shed()
                raise DeadlineExceeded(
                    f"deadline expired {(now - deadline) * 1e3:.1f}ms before "
                    "submission; request shed"
                )
            depth = len(self._queue)
            if depth >= self.policy.max_queue:
                self.metrics.record_shed()
                raise Overloaded(
                    f"queue full ({depth}/{self.policy.max_queue} pending); "
                    "request shed"
                )
            pending = _Pending(payload, now, deadline)
            self._queue.append(pending)
            self.metrics.record_submit(depth)
            self._wake.notify()
            return pending.future

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- scheduler threads ---------------------------------------------

    def service_estimate(self) -> float:
        """EWMA of recent batch service times, in seconds (0.0 cold)."""
        with self._lock:
            return self._service_ewma

    def _doomed(self, pending: _Pending, now: float) -> bool:
        """True when ``pending`` is expired or can't make the next batch."""
        if pending.deadline is None:
            return False
        if now >= pending.deadline:
            return True
        estimate = self._service_ewma
        return estimate > 0.0 and now + estimate > pending.deadline

    def _collect(self) -> Tuple[Optional[List[_Pending]], List[_Pending]]:
        """Block for the first live request, then fill the window.

        Returns ``(batch, shed)`` where ``shed`` holds requests whose
        deadline expired (or provably cannot be met) while queued —
        the caller fails them with :class:`DeadlineExceeded` outside
        the lock.  ``batch`` is ``None`` when the batcher is closed
        and the queue has drained (``close(drain=False)`` empties the
        queue itself); it may be empty when only sheds were found.
        """
        policy = self.policy
        shed: List[_Pending] = []
        with self._wake:
            while True:
                while not self._queue:
                    if self._closed:
                        return None, shed
                    if shed:
                        return [], shed  # fail sheds promptly
                    self._wake.wait()
                first = self._queue.popleft()
                if self._doomed(first, time.perf_counter()):
                    shed.append(first)
                    continue
                batch = [first]
                break
            if policy.max_batch == 1:
                return batch, shed
            window_ends = first.enqueued_at + policy.max_wait_us * 1e-6
            while len(batch) < policy.max_batch:
                if self._queue:
                    candidate = self._queue.popleft()
                    if self._doomed(candidate, time.perf_counter()):
                        shed.append(candidate)
                        continue
                    batch.append(candidate)
                    continue
                if self._closed:
                    break  # drain what we have; don't wait for more
                remaining = window_ends - time.perf_counter()
                if remaining <= 0:
                    break
                self._wake.wait(remaining)
            return batch, shed

    def _fail_shed(self, shed: List[_Pending]) -> None:
        if not shed:
            return
        self.metrics.record_deadline_shed(len(shed))
        now = time.perf_counter()
        for pending in shed:
            overdue = (
                (now - pending.deadline) * 1e3
                if pending.deadline is not None and now >= pending.deadline
                else None
            )
            detail = (
                f"expired {overdue:.1f}ms ago while queued"
                if overdue is not None
                else "cannot be met by the next batch "
                f"(service estimate {self._service_ewma * 1e3:.1f}ms)"
            )
            pending.future.set_exception(
                DeadlineExceeded(f"request deadline {detail}; shed unexecuted")
            )

    def _loop(self) -> None:
        while True:
            with self._forming:
                batch, shed = self._collect()
            self._fail_shed(shed)
            if batch is None:
                return
            if not batch:
                continue
            started = time.perf_counter()
            try:
                results = self._run_batch([p.payload for p in batch])
            except Exception as exc:  # noqa: BLE001 — fail this batch only
                self.metrics.record_failed(len(batch))
                for pending in batch:
                    pending.future.set_exception(exc)
                continue
            if len(results) != len(batch):
                error = ServingError(
                    f"runner returned {len(results)} results for a batch of "
                    f"{len(batch)}"
                )
                self.metrics.record_failed(len(batch))
                for pending in batch:
                    pending.future.set_exception(error)
                continue
            done = time.perf_counter()
            service = done - started
            with self._lock:
                self._service_ewma = (
                    service
                    if self._service_ewma == 0.0
                    else _SERVICE_EWMA_ALPHA * service
                    + (1.0 - _SERVICE_EWMA_ALPHA) * self._service_ewma
                )
            self.metrics.record_batch([done - p.enqueued_at for p in batch])
            for pending, result in zip(batch, results):
                pending.future.set_result(result)

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop admissions; finish (or cancel) queued work; join.

        ``drain=True`` completes every already-admitted request before
        returning.  ``drain=False`` fails queued requests with
        :class:`ServingError` (batches in flight still complete).
        Joins every scheduler thread, sharing ``timeout`` between them.
        Idempotent.
        """
        cancelled: List[_Pending] = []
        with self._wake:
            self._closed = True
            if not drain:
                cancelled = list(self._queue)
                self._queue.clear()
            self._wake.notify_all()
        for pending in cancelled:
            pending.future.set_exception(
                ServingError("batcher closed before the request ran")
            )
        ends = None if timeout is None else time.perf_counter() + timeout
        for thread in self._threads:
            thread.join(
                None if ends is None else max(ends - time.perf_counter(), 0.0)
            )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
