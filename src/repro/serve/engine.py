"""Inference serving engine: plan runners + the routing server.

The pieces:

* **Runners** adapt a model to one uniform call —
  ``run(indices, images) -> labels`` — so the batcher and the worker
  shards never special-case model kinds.  Every served model is a
  compiled plan (:class:`PlanRunner`); a model that does not compile is
  refused with a :class:`~repro.core.errors.ServingError` instead of
  being served some other way.  The timed SNN's forward pass is
  stochastic, so its plan derives every request's spike train from the
  request's own dataset index (``child_rng(seed, "snn-test-spikes",
  index)``, the PR2 scheme) and the runner's execution context caches
  encoded trains per index — encoding is a flat ~0.6 ms/image cost that
  served traffic pays once, not per request.
* :class:`InferenceServer` owns one :class:`MicroBatcher` (and one
  :class:`ServingMetrics`) per served model, routes submissions by
  model name, resolves index-only requests against an attached image
  table, and times every coalesced batch under the ``serve-batch``
  phase.  Backends: in-process runners (default) or a
  :class:`~repro.serve.workers.ShardedPool` of warm worker processes.

Bit-identity: a served prediction equals the corresponding direct
``predict`` / ``predict_batch`` call for the same index, independent
of batch composition, concurrency, or backend — the per-index RNG
scheme plus the IR's per-kind golden contract guarantee it, and
``tests/serve/test_engine.py`` asserts it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import (
    CircuitOpen,
    CompileError,
    DeadlineExceeded,
    NumericSentinelError,
    Overloaded,
    PoisonedRequest,
    ServingError,
)
from ..core.rng import SeedLike, child_rng
from ..core.timing import phase
from .batcher import BatchPolicy, MicroBatcher
from .breaker import BreakerPolicy, CircuitBreaker
from .metrics import ServingMetrics

#: A request payload as it sits in the batcher queue:
#: ``(index, image-or-None, absolute-deadline-or-None)``.
Payload = Tuple[int, Optional[np.ndarray], Optional[float]]

#: Errors that are *not* evidence of a broken model path and must not
#: feed a model's circuit breaker: typed sheds and the breaker's own
#: rejections.
_NON_BREAKER_ERRORS = (Overloaded, DeadlineExceeded, CircuitOpen, PoisonedRequest)


class ModelRunner:
    """Uniform interface over one trained model: ``run(indices, images)``."""

    def run(self, indices: Sequence[int], images: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def precode(self, indices: Sequence[int], images: np.ndarray) -> int:
        """Warm any per-index caches; returns entries added (default 0)."""
        return 0


class PlanRunner(ModelRunner):
    """Serve a :class:`~repro.ir.ops.CompiledPlan` (every served model's runner).

    One long-lived :class:`~repro.ir.runtime.ExecutionContext` carries
    the timed SNN's per-index spike-train cache across requests, so
    served traffic encodes each index once — and deterministic plans
    simply ignore the context.  Bit-identity to each kind's direct
    prediction is the IR's per-kind golden contract
    (``tests/ir/test_golden.py``).
    """

    def __init__(self, plan, seed: SeedLike = None):
        from ..ir.runtime import ExecutionContext

        self.plan = reseeded(plan, seed)
        self._ctx = ExecutionContext(self.plan)

    def precode(self, indices: Sequence[int], images: np.ndarray) -> int:
        if not self.plan.requires_indices:
            return 0
        before = self._ctx.cached_train_count()
        self._ctx.trains_for(np.atleast_2d(images), indices)
        return self._ctx.cached_train_count() - before

    def preload_trains(self, trains: Dict[int, Any]) -> int:
        """Seed the context with shipped/cached trains (shard spawn)."""
        return self._ctx.preload_trains(trains)

    def run(self, indices: Sequence[int], images: np.ndarray) -> np.ndarray:
        if self.plan.requires_indices:
            for index in indices:
                if int(index) < 0:
                    raise ServingError(
                        "snnwt serving needs a dataset index per request; "
                        "the per-request RNG stream is keyed by index"
                    )
        return np.asarray(self._execute(np.atleast_2d(images), indices))

    def _execute(self, images: np.ndarray, indices: Sequence[int]):
        from ..ir.execute import run_plan

        return run_plan(self.plan, images, indices=indices, ctx=self._ctx)


class SerialPlanRunner(PlanRunner):
    """A plan runner on the serial interpreter: the audit lane's oracle.

    Same plan and the same numeric sentinels as :class:`PlanRunner`,
    with no fast kernel in the path, so a fast-kernel bug or a corrupt
    shard cannot agree with it by construction.
    """

    @classmethod
    def twin(cls, runner: PlanRunner) -> "SerialPlanRunner":
        """The serial twin of ``runner``: its plan and its context."""
        twin = cls(runner.plan)
        twin._ctx = runner._ctx
        return twin

    def _execute(self, images: np.ndarray, indices: Sequence[int]):
        from ..ir.interpret import run_plan_serial

        return run_plan_serial(
            self.plan, images, indices=indices, ctx=self._ctx
        )


def build_runners(
    models: Dict[str, Any],
    seed: SeedLike = None,
) -> Dict[str, ModelRunner]:
    """Compile a ``name -> trained model`` mapping into plan runners.

    Every served model is a :class:`~repro.ir.ops.CompiledPlan`.  A
    model that does not compile (a live spike-fault injector, an
    unlabeled SNN, an object of no known kind) is refused with a
    :class:`~repro.core.errors.ServingError` naming it, chained from
    the :class:`~repro.core.errors.CompileError`, before any runner is
    returned.
    """
    return {
        name: PlanRunner(compile_for_serving(name, model), seed=seed)
        for name, model in models.items()
    }


def compile_for_serving(name: str, model):
    """The model's (memoized) plan, or a :class:`ServingError` naming it."""
    from ..ir.plan_cache import get_plan

    try:
        return get_plan(model)
    except CompileError as error:
        raise ServingError(f"cannot serve model {name!r}: {error}") from error


def reseeded(plan, seed: SeedLike):
    """``plan`` with the timed SNN's RNG re-rooted at ``seed``.

    The plan carries its seed in metadata, so this rebinds a copy (the
    fresh plan computes its own — different — signature).  ``None`` and
    deterministic plans come back unchanged.
    """
    if seed is None or not plan.requires_indices:
        return plan
    return plan.__class__(
        plan.kind,
        plan.instructions,
        plan.buffers,
        plan.consts,
        meta={**plan.meta, "seed": seed},
        outputs=plan.outputs,
    )


class InferenceServer:
    """Routes single-image requests to per-model micro-batched engines.

    Exactly one backend:

    * ``runners`` — in-process :class:`ModelRunner` instances (the
      default; what ``build_runners`` produces);
    * ``pool`` — a :class:`~repro.serve.workers.ShardedPool` whose
      worker processes hold the compiled plans (rebound zero-copy to
      shared memory); the server still owns batching, admission
      control and metrics, and the pool owns execution.

    Each model's batcher runs ``pool.jobs`` scheduler threads over a
    pool — while one batch is on a shard the next forms and goes to the
    least-loaded shard — and one thread over in-process runners, which
    share the GIL.

    ``images`` optionally attaches a read-only ``(N, n_inputs)`` image
    table so clients can submit *just an index* — the serving-bench
    shape, where request payloads stay tiny.  With a pool backend and
    index-only traffic, only indices cross the process boundary; the
    workers resolve rows against their shared-memory dataset view.

    Args:
        runners: ``name -> ModelRunner`` (exclusive with ``pool``).
        policy: shared :class:`BatchPolicy` for every model's batcher.
        images: optional image table for index-only submissions.
        pool: optional sharded worker-pool backend.
        breaker: shared :class:`~repro.serve.breaker.BreakerPolicy` for
            every model's circuit breaker (default: the stock policy).
        interceptor: optional chaos/diagnostics hook; its
            ``before_batch(model, payloads)`` runs ahead of every
            coalesced batch (the seam the chaos harness uses for
            latency spikes and transient-error bursts).
        audit_rate: fraction of served batches re-executed on the
            serial-interpreter oracle and bit-compared against the
            served answer (the SDC audit lane).  ``0.0`` (the default)
            disables auditing entirely — no RNG is created and the
            request path is bit-identical to a server built without
            the feature.
        audit_seed: RNG root for the audit sampling stream.
    """

    def __init__(
        self,
        runners: Optional[Dict[str, ModelRunner]] = None,
        policy: Optional[BatchPolicy] = None,
        images: Optional[np.ndarray] = None,
        pool=None,
        breaker: Optional[BreakerPolicy] = None,
        interceptor=None,
        audit_rate: float = 0.0,
        audit_seed: int = 0,
    ):
        if (runners is None) == (pool is None):
            raise ServingError("pass exactly one of runners= or pool=")
        self.runners = dict(runners) if runners is not None else {}
        self.pool = pool
        self.policy = (policy or BatchPolicy()).validate()
        self.breaker_policy = (breaker or BreakerPolicy()).validate()
        self.interceptor = interceptor
        self.images = None if images is None else np.asarray(images)
        self.audit_rate = float(audit_rate)
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ServingError(
                f"audit_rate must be in [0, 1], got {audit_rate}"
            )
        self._audit_lock = threading.Lock()
        self._audit_counters = {
            "audit_checks": 0,
            "audit_matches": 0,
            "audit_mismatches": 0,
            "audit_skipped": 0,
        }
        self._sentinel_trips = 0
        self._audit_rng = (
            child_rng(audit_seed, "audit-lane") if self.audit_rate > 0 else None
        )
        self._oracle_runners: Dict[str, tuple] = {}
        names = sorted(self.runners) if pool is None else sorted(pool.models)
        if not names:
            raise ServingError("no models to serve")
        self.metrics: Dict[str, ServingMetrics] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._batchers: Dict[str, MicroBatcher] = {}
        self._closed = False
        threads = 1 if pool is None else pool.jobs
        for name in names:
            metrics = ServingMetrics(self.policy.max_batch)
            self.metrics[name] = metrics
            self.breakers[name] = CircuitBreaker(self.breaker_policy, name=name)
            self._batchers[name] = MicroBatcher(
                run_batch=self._bind(name),
                policy=self.policy,
                metrics=metrics,
                name=name,
                threads=threads,
            )

    @classmethod
    def from_models(
        cls,
        models: Dict[str, Any],
        policy: Optional[BatchPolicy] = None,
        images: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        audit_rate: float = 0.0,
        audit_seed: int = 0,
    ) -> "InferenceServer":
        """In-process server over trained models (see :func:`build_runners`)."""
        return cls(
            runners=build_runners(models, seed=seed),
            policy=policy,
            images=images,
            audit_rate=audit_rate,
            audit_seed=audit_seed,
        )

    @property
    def models(self) -> List[str]:
        return sorted(self._batchers)

    # -- request path ---------------------------------------------------

    def submit(
        self,
        model: str,
        image: Optional[np.ndarray] = None,
        index: int = -1,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        """Enqueue one request; returns a future resolving to its label.

        Give ``image`` (a raw luminance row), or just ``index`` when an
        image table is attached.  ``deadline_ms`` is a per-request
        latency budget: work that cannot complete inside it is shed
        with :class:`~repro.core.errors.DeadlineExceeded` wherever it
        happens to be queued (never silently dropped).  Raises
        :class:`~repro.core.errors.CircuitOpen` while the model's
        circuit breaker is open,
        :class:`~repro.core.errors.Overloaded` when the model's queue
        is full and :class:`~repro.core.errors.ServingError` for an
        unknown model or after :meth:`close`.
        """
        batcher = self._batchers.get(model)
        if batcher is None:
            raise ServingError(
                f"unknown model {model!r}; serving {self.models}"
            )
        if image is None and not self._has_row(index):
            raise ServingError(
                f"request for model {model!r} has no image and index "
                f"{index} is not in the attached table"
            )
        metrics = self.metrics[model]
        breaker = self.breakers[model]
        if not breaker.allow():
            metrics.record_breaker_rejection()
            raise CircuitOpen(
                f"circuit breaker for model {model!r} is {breaker.state}; "
                "request rejected"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            breaker.cancel()
            raise ServingError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        submitted_at = time.perf_counter()
        deadline = (
            None if deadline_ms is None else submitted_at + deadline_ms * 1e-3
        )
        try:
            future = batcher.submit((int(index), image, deadline), deadline=deadline)
        except ServingError:
            breaker.cancel()  # shed before reaching the model path
            raise
        future.add_done_callback(
            self._breaker_recorder(breaker, submitted_at)
        )
        return future

    @staticmethod
    def _breaker_recorder(breaker: CircuitBreaker, submitted_at: float):
        def record(future: Future) -> None:
            latency = time.perf_counter() - submitted_at
            error = future.exception()
            if error is None:
                breaker.record_success(latency)
            elif isinstance(error, _NON_BREAKER_ERRORS):
                breaker.cancel()  # typed shed, not a model-path failure
            else:
                breaker.record_failure(latency)

        return record

    def predict(
        self,
        model: str,
        image: Optional[np.ndarray] = None,
        index: int = -1,
        timeout: Optional[float] = 60.0,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Blocking single prediction (``submit().result()``)."""
        return int(
            self.submit(
                model, image=image, index=index, deadline_ms=deadline_ms
            ).result(timeout)
        )

    def predict_many(
        self,
        model: str,
        images: Optional[np.ndarray] = None,
        indices: Optional[Sequence[int]] = None,
        timeout: Optional[float] = 60.0,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Submit many requests concurrently; gather labels in order."""
        if images is None and indices is None:
            raise ServingError("predict_many needs images and/or indices")
        count = len(images) if images is not None else len(indices)
        futures = []
        for j in range(count):
            image = images[j] if images is not None else None
            index = int(indices[j]) if indices is not None else j
            futures.append(
                self.submit(
                    model, image=image, index=index, deadline_ms=deadline_ms
                )
            )
        return np.array([int(f.result(timeout)) for f in futures], dtype=np.int64)

    # -- model lifecycle ------------------------------------------------

    def swap_model(
        self,
        name: str,
        model,
        seed: SeedLike = None,
    ) -> Dict[str, Any]:
        """Replace one served model's weights without dropping requests.

        The batcher, metrics and breaker for ``name`` stay in place —
        only the execution target changes.  In-process backend: a
        fresh runner is built and the reference swapped atomically
        (``_run_batch`` dereferences ``self.runners[name]`` per batch,
        so queued requests drain to whichever model is current — none
        are shed).  Pool backend: delegates to
        :meth:`~repro.serve.workers.ShardedPool.hot_swap`, which rolls
        the shard slots onto the new weights one at a time.  Either
        way a model that does not compile raises
        :class:`~repro.core.errors.ServingError` before the old model
        stops serving.
        """
        if name not in self._batchers:
            raise ServingError(
                f"unknown model {name!r}; serving {self.models}"
            )
        if self._closed:
            raise ServingError("server is closed; cannot swap models")
        if self.pool is not None:
            result = self.pool.hot_swap({name: model})
            return {"model": name, "backend": "pool", **result}
        runner = build_runners({name: model}, seed=seed)[name]
        self.runners[name] = runner
        return {"model": name, "backend": "runners"}

    # -- warmup / introspection ----------------------------------------

    def warm(
        self, model: Optional[str] = None, indices: Optional[Sequence[int]] = None
    ) -> int:
        """Pre-encode per-index caches against the attached image table.

        Returns the number of cache entries added.  A no-op for
        deterministic runners and for pool backends (pool workers warm
        themselves at startup).
        """
        if self.images is None or self.pool is not None:
            return 0
        if indices is None:
            indices = range(len(self.images))
        indices = [int(i) for i in indices]
        rows = self.images[indices]
        names = [model] if model is not None else list(self.runners)
        added = 0
        for name in names:
            runner = self.runners.get(name)
            if runner is None:
                raise ServingError(f"unknown model {name!r}")
            added += runner.precode(indices, rows)
        return added

    def queue_depth(self, model: str) -> int:
        return self._batchers[model].queue_depth()

    def stats(self) -> Dict[str, Any]:
        """Per-model metric snapshots (the ``serve-stats`` payload)."""
        from ..ir.plan_cache import plan_cache_stats

        payload: Dict[str, Any] = {
            "models": {
                name: {
                    "model": name,
                    **self.metrics[name].snapshot(),
                    "breaker": self.breakers[name].snapshot(),
                }
                for name in self.models
            },
            "plan_cache": plan_cache_stats(),
        }
        if self.pool is not None:
            payload["pool"] = self.pool.stats()
        payload["integrity"] = self.integrity()
        return payload

    def health(self) -> Dict[str, Any]:
        """Readiness / liveness probe payload (``serve-health``).

        * **live** — the server object exists and is not closed (a
          process-level liveness signal).
        * **ready** — every model's breaker admits traffic (not open)
          *and*, with a pool backend, at least one shard is alive.

        Per-model detail carries the breaker state and current queue
        depth so an operator can see *why* readiness flipped.
        """
        live = not self._closed
        models: Dict[str, Any] = {}
        ready = live
        for name in self.models:
            snapshot = self.breakers[name].snapshot()
            models[name] = {
                "breaker": snapshot,
                "queue_depth": self._batchers[name].queue_depth(),
            }
            if snapshot["state"] == "open":
                ready = False
        payload: Dict[str, Any] = {
            "live": live,
            "models": models,
        }
        if self.pool is not None:
            alive = self.pool.alive_shards()
            payload["pool"] = {
                "alive_shards": alive,
                "jobs": self.pool.jobs,
            }
            if not alive:
                ready = False
        integrity = self.integrity()
        payload["integrity"] = integrity
        if integrity.get("unrecoverable"):
            # Corruption recovery failed: answers cannot be trusted.
            ready = False
        payload["ready"] = ready
        return payload

    # -- batch execution (scheduler threads land here) ------------------

    def _bind(self, name: str):
        def run_batch(payloads: List[Payload]) -> Sequence[Any]:
            return self._run_batch(name, payloads)

        return run_batch

    def _has_row(self, index: int) -> bool:
        if 0 <= index:
            if self.images is not None and index < len(self.images):
                return True
            if self.pool is not None and self.pool.has_row(index):
                return True
        return False

    def _resolve_images(self, payloads: List[Payload]) -> np.ndarray:
        rows = []
        for index, image, _deadline in payloads:
            if image is not None:
                rows.append(np.asarray(image))
            elif self.images is not None and 0 <= index < len(self.images):
                rows.append(self.images[index])
            else:
                raise ServingError(
                    f"no image for request index {index} and no attached table"
                )
        return np.stack(rows)

    def _run_batch(self, name: str, payloads: List[Payload]) -> Sequence[Any]:
        if self.interceptor is not None:
            # Chaos / diagnostics seam: may sleep (latency spike) or
            # raise (transient error burst) ahead of the model call.
            self.interceptor.before_batch(name, payloads)
        indices = [index for index, _, _ in payloads]
        deadlines = [d for _, _, d in payloads if d is not None]
        deadline = min(deadlines) if deadlines else None
        audit = self._should_audit()
        with phase("serve-batch"):
            if self.pool is not None:
                if (
                    all(image is None for _, image, _ in payloads)
                    and self.pool.has_dataset
                ):
                    images = None  # workers resolve rows from shared memory
                else:
                    images = self._resolve_images(payloads)
                if audit:
                    result, shard_id = self.pool.run_batch(
                        name, indices, images, deadline=deadline,
                        return_shard=True,
                    )
                    self._audit_batch(name, indices, images, result, shard_id)
                    return result
                return self.pool.run_batch(
                    name, indices, images, deadline=deadline
                )
            rows = self._resolve_images(payloads)
            try:
                result = self.runners[name].run(indices, rows)
            except NumericSentinelError:
                with self._audit_lock:
                    self._sentinel_trips += 1
                raise
            if audit:
                self._audit_batch(name, indices, rows, result, None)
            return result

    # -- audit lane ------------------------------------------------------

    def _should_audit(self) -> bool:
        """Seeded coin flip per coalesced batch (rate 0: draw-free)."""
        if self.audit_rate <= 0:
            return False
        with self._audit_lock:
            return float(self._audit_rng.random()) < self.audit_rate

    def _oracle_for(self, name: str) -> ModelRunner:
        """Serial-interpreter twin of an in-process plan runner (cached).

        The cache is keyed by runner identity: :meth:`swap_model`
        replaces the runner object, which invalidates the oracle.
        """
        runner = self.runners.get(name)
        cached = self._oracle_runners.get(name)
        if cached is not None and cached[0] is runner:
            return cached[1]
        oracle = SerialPlanRunner(runner.plan)
        self._oracle_runners[name] = (runner, oracle)
        return oracle

    def _audit_batch(
        self,
        name: str,
        indices: Sequence[int],
        images: Optional[np.ndarray],
        served,
        shard_id: Optional[int],
    ) -> None:
        """Re-execute one served batch on the serial oracle and compare.

        A mismatch is the audit lane's whole reason to exist: the fast
        path returned an answer the independent serial interpreter
        disagrees with — silent corruption.  Pool mode escalates via
        :meth:`~repro.serve.workers.ShardedPool.report_audit_mismatch`
        (quarantine + full scrub); either mode counts it.  Oracle
        failures degrade to ``audit_skipped`` — the audit lane must
        never fail a request the serving path already answered.
        """
        try:
            if self.pool is not None:
                oracle = self.pool.audit_oracle(name)
                rows = (
                    images if images is not None else self.pool.audit_rows(indices)
                )
            else:
                oracle = self._oracle_for(name)
                rows = images
            expected = np.asarray(oracle.run(indices, np.atleast_2d(rows)))
        except Exception:
            with self._audit_lock:
                self._audit_counters["audit_skipped"] += 1
            return
        matched = np.array_equal(
            np.asarray(served).reshape(-1), expected.reshape(-1)
        )
        with self._audit_lock:
            self._audit_counters["audit_checks"] += 1
            key = "audit_matches" if matched else "audit_mismatches"
            self._audit_counters[key] += 1
        if not matched and self.pool is not None and shard_id is not None:
            self.pool.report_audit_mismatch(shard_id, name)

    def integrity(self) -> Dict[str, Any]:
        """Stable-keyed SDC-defense section for stats/health payloads."""
        with self._audit_lock:
            payload: Dict[str, Any] = {
                "audit_rate": self.audit_rate,
                **self._audit_counters,
            }
            sentinel_trips = self._sentinel_trips
        if self.pool is not None:
            # Pool counters include worker-side sentinel trips; the
            # engine-side counter only matters for in-process runners.
            payload.update(self.pool.integrity_stats())
        else:
            payload["sentinel_trips"] = sentinel_trips
        return payload

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Close every batcher (draining by default) and the pool."""
        if self._closed:
            return
        self._closed = True
        for batcher in self._batchers.values():
            batcher.close(drain=drain)
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
