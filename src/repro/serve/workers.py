"""Sharded worker pool: warm model processes over zero-copy weights.

One :class:`ShardedPool` owns N worker processes ("shards").  The
parent compiles every served model onto the execution IR and publishes
each plan's const arrays (and, for the timed SNN, its encoded spike
trains) — plus, optionally, the dataset image table — into a single
:class:`~repro.serve.shm.SharedArrayBundle`; each shard *attaches* and
rebinds its plans around read-only numpy views of the segment, so N
shards share one copy of the weights and the dataset (zero pickling,
shared page cache).  Only small things cross the process boundary:
plan skeletons at spawn, and per-task
``(task_id, model, indices, images-or-None)`` tuples afterwards — with
index-only traffic against a shared dataset, a task is just a list of
ints.  A model that does not compile is refused with a
:class:`~repro.core.errors.ServingError` before any segment or shard
exists (or, in :meth:`ShardedPool.hot_swap`, before the old model stops
serving).

Dispatch is **least-loaded**: every task (a fresh batch, a requeue
after a shard death, a re-dispatch after corruption) goes to the alive
shard with the fewest tasks in flight, rotating among ties.  Blind
round-robin would queue a batch behind a busy or wedged shard whenever
completions return out of order.  A pool-backed
:class:`~repro.serve.engine.InferenceServer` runs one batcher thread
per shard for each model, so all shards can be busy at once;
:meth:`ShardedPool.stats` reports ``peak_in_flight``, the most tasks
the pool ever held at once.

Fault tolerance (asserted by ``tests/serve/test_workers.py`` and
``tests/serve/test_supervisor.py``):

* each shard has a dedicated collector thread that polls the shard's
  result queue with a short timeout and checks ``process.is_alive()``
  between polls; idle shards emit **heartbeats** so a wedged (alive
  but stuck) shard is distinguishable from a busy one;
* when a shard dies mid-task, its in-flight tasks are **requeued** on
  the surviving shards — but only up to ``max_task_retries`` shard
  deaths per task: a task that keeps killing shards is **quarantined**
  with a typed :class:`~repro.core.errors.PoisonedRequest` (its
  signature is remembered and resubmissions fail fast) instead of
  being requeued forever;
* results are keyed by ``task_id``, so a duplicate completion after a
  requeue raced the original is an explicit no-op (counted as
  ``duplicate_completions`` in :meth:`ShardedPool.stats`);
* a task whose **deadline** expired while its shard died is shed with
  :class:`~repro.core.errors.DeadlineExceeded` instead of consuming a
  survivor's capacity;
* when the *last* shard dies, pending tasks fail with
  :class:`~repro.core.errors.ServingError` instead of hanging;
* with a :class:`~repro.serve.supervisor.SupervisorPolicy` attached,
  dead or wedged shards are **respawned** (exponential backoff +
  deterministic jitter) under a per-slot crash-loop breaker — see
  :mod:`repro.serve.supervisor`;
* :meth:`ShardedPool.hot_swap` replaces served models' weights
  **without dropping requests**: it publishes a fresh shared-memory
  bundle (updated arrays for the swapped models, byte-identical copies
  for the rest), flips the spawn-time references, then retires shard
  slots one at a time through :meth:`retire_shard` — a *planned*
  retirement that the supervisor respawns immediately, without crash
  bookkeeping, backoff, or breaker pressure, so a learner promoting
  snapshots every few seconds cannot trip the crash-loop breaker.
  In-flight tasks on a retiring shard requeue on the survivors via the
  ordinary death path; capacity never reaches zero.

Silent-data-corruption defense (asserted by
``tests/serve/test_integrity.py`` and the ``weight-corruption`` chaos
scenario):

* the published bundle carries per-array SHA-256 digests; shards
  verify them at attach, and a **background scrubber** thread
  (``scrub_period=`` seconds) re-hashes the live segment so a bit flip
  in shared memory is *detected*, not served forever;
* on detection the pool **recovers**: dispatch pauses, the corrupt
  arrays are restored in place from the sidecar-verified snapshot the
  pool wrote at publish time (:class:`ServingSnapshotCache`, with an
  in-memory pristine fallback), results computed against the corrupt
  bytes are discarded and transparently re-dispatched (never served),
  and every shard slot is rolled onto a fresh, attach-verified worker;
* a worker whose numeric sentinel trips
  (:class:`~repro.core.errors.NumericSentinelError`) reports the typed
  error instead of a prediction, and the pool counts the trip;
* the audit lane (:class:`~repro.serve.engine.InferenceServer`
  ``audit_rate=``) re-executes sampled requests on a parent-side
  serial-oracle runner built from the *pristine* arrays
  (:meth:`ShardedPool.audit_oracle`) and reports mismatches through
  :meth:`ShardedPool.report_audit_mismatch`, which quarantines the
  (shard, model) pair, retires the shard, and escalates to a full
  scrub.

Rebuild-from-views is exact: plan execution reads its consts without
writing (inference only), so handing it read-only views of the
published arrays yields bit-identical predictions to the parent's own
models — the pool changes *where* inference runs, never its result.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.artifacts import ServingSnapshotCache, cache_enabled
from ..core.errors import (
    DeadlineExceeded,
    IntegrityError,
    NumericSentinelError,
    PoisonedRequest,
    ServingError,
)
from ..core.rng import SeedLike, child_rng
from .shm import Layout, SharedArrayBundle

#: Seconds a collector waits on the result queue before re-checking
#: that its shard process is still alive.
_POLL_SECONDS = 0.2

#: Key under which the dataset image table is published in the bundle.
_DATASET_KEY = "dataset/images"

#: Seconds an *idle* worker waits for a task before emitting a
#: heartbeat message on its result queue.  Wedge detection compares
#: the parent-side age of the last message against the supervisor's
#: ``wedge_timeout`` — a busy shard goes quiet too, so the timeout
#: must exceed the longest legitimate batch.
HEARTBEAT_SECONDS = 0.5

#: Chaos-hook pseudo-model: a task with this name hard-kills the
#: worker process mid-task (``os._exit``), modelling a poison request
#: that reliably crashes whatever shard picks it up.  Only honoured
#: when the pool was built with ``chaos_hooks=True``.
POISON_MODEL = "__poison__"

#: Chaos-hook control message: ``(_WEDGE, seconds)`` makes the worker
#: sleep without heartbeating — an alive-but-stuck shard.
_WEDGE = "__wedge__"


# ---------------------------------------------------------------------------
# Plan publish / rebuild
# ---------------------------------------------------------------------------


def _publish_plan(
    name: str,
    model,
    arrays: Dict[str, np.ndarray],
    seed: SeedLike,
    images: Optional[np.ndarray],
    warm: bool,
) -> Dict[str, Any]:
    """Describe ``model`` as a compiled plan (consts + trains in shm).

    The spec ships the small plan *skeleton* (instructions, buffers,
    metadata, signature); the const arrays travel through the bundle
    under ``{name}/plan/consts/...``.  For the timed SNN with a
    published dataset and ``warm=True``, the parent also ships the
    whole encoded spike-train set (CSR arrays, from the content-
    addressed trains cache) under ``{name}/plan/trains/...`` — shards
    preload it instead of re-encoding the dataset each, which is where
    the faster spawn->ready comes from.

    Every served model ships this way.  A model that does not compile
    (a live spike-fault injector, an unlabeled SNN, an object of no
    known kind) raises :class:`~repro.core.errors.ServingError` naming
    it, chained from the :class:`~repro.core.errors.CompileError`, and
    publishes nothing.
    """
    from ..ir.plan_cache import trains_arrays_for_shipping
    from .engine import compile_for_serving, reseeded

    # The pool's RNG root goes into the shipped plan so shards and the
    # shipped trains agree.
    plan = reseeded(compile_for_serving(name, model), seed)
    for cname, value in plan.consts.items():
        arrays[f"{name}/plan/consts/{cname}"] = np.asarray(value)
    spec: Dict[str, Any] = {"skeleton": plan.skeleton(), "trains": False}
    if warm and images is not None and plan.requires_indices:
        for key, value in trains_arrays_for_shipping(plan, images).items():
            arrays[f"{name}/plan/trains/{key}"] = value
        spec["trains"] = True
    return spec


def _rebuild_plan_runner(name: str, spec: Dict[str, Any], bundle):
    """Worker-side: rebind the shipped plan and preload its trains."""
    from ..ir.ops import CompiledPlan
    from ..ir.plan_cache import unpack_trains
    from .engine import PlanRunner

    skeleton = spec["skeleton"]
    consts = {
        cname: bundle[f"{name}/plan/consts/{cname}"]
        for cname in skeleton["const_names"]
    }
    plan = CompiledPlan.from_skeleton(skeleton, consts)
    runner = PlanRunner(plan)
    if spec.get("trains"):
        keys = (
            "indices",
            "offsets",
            "times",
            "inputs",
            "modulation",
            "n_inputs",
            "durations",
        )
        runner.preload_trains(
            unpack_trains(
                {key: bundle[f"{name}/plan/trains/{key}"] for key in keys}
            )
        )
    return runner


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _shard_main(
    shard_id: int,
    bundle_spec: Tuple[str, Layout, Dict[str, str]],
    model_specs: Dict[str, Dict[str, Any]],
    warm: bool,
    start_method: str,
    in_q,
    out_q,
    chaos_hooks: bool = False,
) -> None:
    """Worker entry point: attach, rebuild, serve tasks until sentinel.

    Idle workers emit a heartbeat message every
    :data:`HEARTBEAT_SECONDS` so the supervisor can distinguish a
    wedged shard (no messages at all) from an idle one.
    """
    import os
    import time as time_module

    # Fork-started shards share the parent's resource tracker; see
    # SharedArrayBundle.attach for why untrack must follow the method.
    bundle = SharedArrayBundle.attach(
        *bundle_spec, untrack=(start_method != "fork")
    )
    try:
        runners = {
            name: _rebuild_plan_runner(name, spec, bundle)
            for name, spec in model_specs.items()
        }
        images = bundle[_DATASET_KEY] if _DATASET_KEY in bundle else None
        if warm and images is not None:
            # Plan runners with shipped trains find every index already
            # cached — this loop is then a no-op instead of the
            # dominant (re-encode-the-dataset) cold-start cost.
            for runner in runners.values():
                runner.precode(range(len(images)), images)
        out_q.put(("ready", shard_id, None, None))
        while True:
            try:
                task = in_q.get(timeout=HEARTBEAT_SECONDS)
            except queue_module.Empty:
                out_q.put(("heartbeat", shard_id, None, time_module.time()))
                continue
            if task is None:
                return
            if chaos_hooks and isinstance(task, tuple) and task[0] == _WEDGE:
                # Alive-but-stuck: sleep without heartbeating so the
                # supervisor's wedge detector has something to find.
                time_module.sleep(float(task[1]))
                continue
            task_id, model, indices, rows = task
            if chaos_hooks and model == POISON_MODEL:
                os._exit(13)  # poison request: crash the shard mid-task
            try:
                if rows is None:
                    if images is None:
                        raise ServingError(
                            "index-only task but no shared dataset published"
                        )
                    rows = images[list(indices)]
                labels = runners[model].run(indices, rows)
                out_q.put(("result", shard_id, task_id, np.asarray(labels)))
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                out_q.put(("error", shard_id, task_id, repr(exc)))
    finally:
        bundle.close()


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class _Shard:
    """Parent-side handle: process + queues + collector thread."""

    __slots__ = (
        "shard_id",
        "generation",
        "process",
        "in_q",
        "out_q",
        "collector",
        "alive",
        "last_message_at",
        "spawned_at",
    )

    def __init__(self, shard_id: int, process, in_q, out_q, generation: int = 0):
        self.shard_id = shard_id
        self.generation = generation
        self.process = process
        self.in_q = in_q
        self.out_q = out_q
        self.collector: Optional[threading.Thread] = None
        self.alive = True
        #: Parent-clock time of the last message (ready / heartbeat /
        #: result / error) received from this shard — the wedge signal.
        self.last_message_at = time.perf_counter()
        #: Parent-clock time just before ``process.start()`` — the
        #: start of the spawn->ready window ``stats()`` reports.
        self.spawned_at = self.last_message_at


class _Task:
    """One in-flight batch: future, payload, shard, deaths, deadline."""

    __slots__ = (
        "task_id",
        "payload",
        "shard_id",
        "future",
        "deaths",
        "deadline",
        "epoch",
    )

    def __init__(
        self,
        task_id: int,
        payload: tuple,
        shard_id: int,
        deadline: Optional[float] = None,
        epoch: int = 0,
    ):
        self.task_id = task_id
        self.payload = payload
        self.shard_id = shard_id
        self.future: Future = Future()
        #: Number of shard deaths this task has been in flight across.
        self.deaths = 0
        self.deadline = deadline
        #: Integrity epoch at dispatch.  The pool bumps its epoch when
        #: corruption is detected; a *result* stamped with an older
        #: epoch was computed against bytes that failed verification
        #: and is discarded + re-dispatched instead of served.
        self.epoch = epoch


class ShardedPool:
    """N warm worker processes sharing one weights+dataset segment.

    :meth:`run_batch` is safe to call from many threads; each call
    blocks for its own result while the task runs on the alive shard
    with the fewest tasks in flight (ties rotate).  An
    :class:`~repro.serve.engine.InferenceServer` over the pool calls it
    from ``jobs`` batcher threads per model, one per shard.

    Args:
        models: ``name -> trained model`` (the five plan kinds:
            SpikingNetwork, SNNwot, SNN+BP, MLP, QuantizedMLP); a model
            that does not compile raises :class:`ServingError`.
        jobs: number of shard processes.
        images: optional dataset table published into shared memory so
            tasks can reference rows by index only.
        seed: RNG root baked into the shipped SNNwt plan.
        warm: pre-encode SNNwt spike-train caches in every shard at
            startup (against the published dataset).
        start_method: multiprocessing start method (default: ``fork``
            where available — the shards attach the segment either way).
        task_timeout: seconds :meth:`run_batch` waits before declaring
            a task lost.
        max_task_retries: shard deaths a single task may survive (being
            requeued each time) before it is quarantined with
            :class:`~repro.core.errors.PoisonedRequest`.
        supervisor: optional
            :class:`~repro.serve.supervisor.SupervisorPolicy`; when
            given, a :class:`~repro.serve.supervisor.ShardSupervisor`
            respawns dead/wedged shards under a crash-loop breaker.
        chaos_hooks: enable the in-worker chaos hooks
            (:data:`POISON_MODEL` tasks, :meth:`wedge_shard`, and
            :meth:`chaos_corrupt`) used by the chaos harness and the
            fault-tolerance tests.
        scrub_period: seconds between background re-verifications of
            the shared segment against its publish-time digests
            (``None``/``0`` disables the scrubber; :meth:`scrub_now`
            stays available either way).
    """

    def __init__(
        self,
        models: Dict[str, Any],
        jobs: int = 2,
        images: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        warm: bool = True,
        start_method: Optional[str] = None,
        task_timeout: float = 120.0,
        max_task_retries: int = 2,
        supervisor=None,
        chaos_hooks: bool = False,
        scrub_period: Optional[float] = None,
    ):
        if jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {jobs}")
        if not models:
            raise ServingError("no models to serve")
        if max_task_retries < 0:
            raise ServingError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.models = sorted(models)
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self._chaos_hooks = chaos_hooks
        self._n_rows = 0 if images is None else len(images)
        self._lock = threading.Lock()
        self._tasks: Dict[int, _Task] = {}
        self._task_ids = itertools.count()
        #: rotates dispatch among equally loaded shards.
        self._rr = itertools.count()
        #: most tasks ever in flight at once (see stats()).
        self._peak_in_flight = 0
        self._closing = False
        #: quarantined task signature -> shard deaths it caused.
        self._quarantine: Dict[tuple, int] = {}
        #: reliability counters (under self._lock; see stats()).
        self._counters: Dict[str, int] = {
            "requeues": 0,
            "duplicate_completions": 0,
            "quarantined": 0,
            "quarantine_rejections": 0,
            "deadline_shed": 0,
            "respawns": 0,
            "wedge_kills": 0,
            "shard_deaths": 0,
            "hot_swaps": 0,
            "planned_retires": 0,
        }
        #: slots whose next death is a planned retirement (hot-swap
        #: rollover), not a crash; the supervisor consumes the flag.
        self._planned_retires: set = set()
        #: subset of planned retires caused by corruption recovery /
        #: audit quarantine; the supervisor consumes this flag too, to
        #: count corrupt heals separately from swap rollovers.
        self._corrupt_retires: set = set()
        #: SDC-defense counters (under self._lock; see integrity_stats).
        self._integrity: Dict[str, int] = {
            "scrub_passes": 0,
            "scrub_failures": 0,
            "corrupt_arrays_detected": 0,
            "restores": 0,
            "corrupt_shard_respawns": 0,
            "stale_results_discarded": 0,
            "sentinel_trips": 0,
            "audit_mismatch_reports": 0,
        }
        #: bumped on corruption detection; results stamped older are
        #: discarded + re-dispatched instead of served.
        self._integrity_epoch = 0
        self._recovering = False
        self._corrupt_unrecoverable = False
        #: cleared for the (short) restore window so dispatch cannot
        #: race corrupt bytes; set again once the segment re-verifies.
        self._recovery_done = threading.Event()
        self._recovery_done.set()
        self._last_corruption: Optional[Dict[str, Any]] = None
        #: (shard_id, model) pairs quarantined by audit mismatches.
        self._audit_quarantined: set = set()
        #: per-model parent-side serial oracle runners, keyed on the
        #: bundle they were built against (invalidated by hot_swap).
        self._audit_runners: Dict[str, tuple] = {}
        self.scrub_period = (
            float(scrub_period) if scrub_period else None
        )
        self._scrub_stop = threading.Event()
        self._scrub_thread: Optional[threading.Thread] = None
        #: bundles superseded by hot_swap but possibly still mapped by
        #: retiring workers; unlinked when the swap (or close) finishes.
        self._retired_bundles: List[SharedArrayBundle] = []
        #: set by the collector on every shard death; the supervisor
        #: waits on it instead of busy-polling.
        self.death_event = threading.Event()

        self._seed = seed
        self._warm = warm
        self._images = None if images is None else np.asarray(images)
        #: spawn->ready wall-clock per shard come-up (cold-start metric).
        self._spawn_seconds: List[float] = []
        arrays: Dict[str, np.ndarray] = {}
        # Compiles every model first: a refusal raises before any
        # shared-memory segment or shard exists.
        self._specs = {
            name: self._publish_spec(name, model, arrays)
            for name, model in models.items()
        }
        if self._images is not None:
            arrays[_DATASET_KEY] = self._images
        self._bundle = SharedArrayBundle.create(arrays)
        self._snapshot_cache = ServingSnapshotCache() if cache_enabled() else None
        self._pristine: Dict[str, np.ndarray] = {}
        self._snapshot_key = ""
        self._record_pristine(self._bundle)

        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        self._start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._supervisor = None
        self._shards: List[_Shard] = []
        try:
            for shard_id in range(jobs):
                self._shards.append(self._spawn_shard(shard_id, generation=0))
            for shard in self._shards:
                self._await_ready(shard)
        except Exception:
            self.close()
            raise
        for shard in self._shards:
            self._start_collector(shard)
        if supervisor is not None:
            from .supervisor import ShardSupervisor, SupervisorPolicy

            if not isinstance(supervisor, SupervisorPolicy):
                raise ServingError(
                    "supervisor= expects a SupervisorPolicy, got "
                    f"{type(supervisor).__name__}"
                )
            self._supervisor = ShardSupervisor(self, supervisor)
            self._supervisor.start()
        if self.scrub_period:
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop, name="repro-scrubber", daemon=True
            )
            self._scrub_thread.start()

    # -- startup / (re)spawn --------------------------------------------

    def _publish_spec(
        self, name: str, model, arrays: Dict[str, np.ndarray]
    ) -> Dict[str, Any]:
        """Publish one model's plan (see :func:`_publish_plan`)."""
        return _publish_plan(
            name, model, arrays, self._seed, self._images, self._warm
        )

    def _spawn_shard(self, shard_id: int, generation: int) -> _Shard:
        """Start one worker process for ``shard_id`` (not yet ready)."""
        in_q = self._ctx.Queue()
        out_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                shard_id,
                self._bundle.spec(),
                self._specs,
                self._warm,
                self._start_method,
                in_q,
                out_q,
                self._chaos_hooks,
            ),
            name=f"repro-shard-{shard_id}g{generation}",
            daemon=True,
        )
        spawned_at = time.perf_counter()
        process.start()
        shard = _Shard(shard_id, process, in_q, out_q, generation=generation)
        shard.spawned_at = spawned_at
        return shard

    def _await_ready(self, shard: _Shard, timeout: float = 120.0) -> None:
        try:
            kind, *_rest = shard.out_q.get(timeout=timeout)
        except queue_module.Empty:
            raise ServingError(
                f"shard {shard.shard_id} did not come up within {timeout}s"
            ) from None
        if kind != "ready":  # pragma: no cover - defensive
            raise ServingError(
                f"shard {shard.shard_id} sent {kind!r} before ready"
            )
        shard.last_message_at = time.perf_counter()
        with self._lock:
            self._spawn_seconds.append(
                shard.last_message_at - shard.spawned_at
            )

    def _start_collector(self, shard: _Shard) -> None:
        shard.collector = threading.Thread(
            target=self._collect,
            args=(shard,),
            name=f"repro-collector-{shard.shard_id}g{shard.generation}",
            daemon=True,
        )
        shard.collector.start()

    def respawn_shard(self, shard_id: int, ready_timeout: float = 120.0) -> None:
        """Replace a dead shard slot with a fresh worker process.

        Called by the :class:`~repro.serve.supervisor.ShardSupervisor`
        (or tests).  Raises :class:`ServingError` when the replacement
        fails to come up — the supervisor counts that as another crash.
        """
        with self._lock:
            if self._closing:
                raise ServingError("pool is closing; not respawning")
            old = self._shards[shard_id]
            if old.alive and old.process.is_alive():
                raise ServingError(
                    f"shard {shard_id} is still alive; refusing to respawn"
                )
            generation = old.generation + 1
        replacement = self._spawn_shard(shard_id, generation=generation)
        try:
            self._await_ready(replacement, timeout=ready_timeout)
        except ServingError:
            if replacement.process.is_alive():  # pragma: no cover - defensive
                replacement.process.terminate()
            raise
        with self._lock:
            if self._closing:
                replacement.process.terminate()
                raise ServingError("pool closed while respawning")
            self._close_shard_queues(old)
            self._shards[shard_id] = replacement
            self._counters["respawns"] += 1
        self._start_collector(replacement)

    def consume_planned_retire(self, shard_id: int) -> bool:
        """Claim (and clear) the planned-retire flag for one slot.

        The supervisor calls this when healing a dead slot: True means
        the death was a deliberate :meth:`retire_shard` and must not
        count toward the crash-loop breaker.
        """
        with self._lock:
            if shard_id in self._planned_retires:
                self._planned_retires.discard(shard_id)
                return True
            return False

    def retire_shard(self, shard_id: int, ready_timeout: float = 120.0) -> None:
        """Planned retirement: kill one shard so it respawns fresh.

        Used by :meth:`hot_swap` to roll a slot onto the current
        bundle/specs.  With a supervisor attached the respawn happens
        on its next sweep (immediately — no backoff, no crash
        bookkeeping); without one the pool respawns the slot inline
        after the collector has triaged the dead shard's tasks.
        """
        with self._lock:
            if self._closing:
                raise ServingError("pool is closing; not retiring shards")
            self._counters["planned_retires"] += 1
            self._planned_retires.add(shard_id)
            shard = self._shards[shard_id]
            supervised = self._supervisor is not None
        self.kill_shard(shard_id)
        if not supervised:
            # Let the collector requeue the dead shard's in-flight
            # tasks before the slot is replaced under it.
            if shard.collector is not None:
                shard.collector.join(timeout=30.0)
            try:
                self.respawn_shard(shard_id, ready_timeout=ready_timeout)
            finally:
                with self._lock:
                    self._planned_retires.discard(shard_id)

    def _await_generation(
        self, shard_id: int, above: int, timeout: float
    ) -> None:
        """Block until a slot serves at a generation newer than ``above``."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                shard = self._shards[shard_id]
                if shard.alive and shard.generation > above:
                    return
            time.sleep(0.02)
        raise ServingError(
            f"shard {shard_id} did not roll over past generation {above} "
            f"within {timeout}s"
        )

    def hot_swap(
        self, updates: Dict[str, Any], ready_timeout: float = 120.0
    ) -> Dict[str, Any]:
        """Replace served models' weights with zero dropped requests.

        Publishes a fresh bundle holding the updated arrays for every
        model in ``updates`` and byte-identical copies of everything
        else (untouched tenants and the dataset table), flips the
        references new spawns read, then rolls the shard slots over
        one at a time — at every instant all but one slot is serving,
        and a retiring shard's in-flight tasks requeue on survivors.
        Requests racing the rollover may be answered by either
        generation; untouched models answer bit-identically from both.
        An update that does not compile raises :class:`ServingError`
        before anything is published, so the old model keeps serving.
        """
        unknown = sorted(set(updates) - set(self.models))
        if unknown:
            raise ServingError(
                f"cannot hot-swap unknown model(s) {unknown}; "
                f"pool serves {self.models}"
            )
        if not updates:
            raise ServingError("hot_swap needs at least one model update")
        with self._lock:
            if self._closing:
                raise ServingError("pool is closing; not hot-swapping")
            old_bundle = self._bundle
            new_specs = dict(self._specs)
        arrays: Dict[str, np.ndarray] = {}
        for name, model in updates.items():
            new_specs[name] = self._publish_spec(name, model, arrays)
        swapped_prefixes = tuple(f"{name}/" for name in updates)
        for key in old_bundle.layout:
            if key.startswith(swapped_prefixes):
                continue
            arrays[key] = np.array(old_bundle[key])
        new_bundle = SharedArrayBundle.create(arrays)
        with self._lock:
            if self._closing:
                new_bundle.close(unlink=True)
                raise ServingError("pool closed while hot-swapping")
            self._bundle = new_bundle
            self._specs = new_specs
            self._retired_bundles.append(old_bundle)
            # Oracle runners hold views into the old bundle; rebuild
            # them lazily against the new one.
            self._audit_runners.clear()
            plan = [(s.shard_id, s.generation) for s in self._shards]
        self._record_pristine(new_bundle)
        for shard_id, generation in plan:
            self.retire_shard(shard_id, ready_timeout=ready_timeout)
            self._await_generation(shard_id, above=generation, timeout=ready_timeout)
        with self._lock:
            self._counters["hot_swaps"] += 1
            if old_bundle in self._retired_bundles:
                self._retired_bundles.remove(old_bundle)
            generations = {
                str(s.shard_id): s.generation for s in self._shards
            }
        # Every slot now serves from the new bundle; dropping the old
        # segment cannot yank views from under a live worker.
        old_bundle.close(unlink=True)
        return {"swapped": sorted(updates), "generations": generations}

    @staticmethod
    def _close_shard_queues(shard: _Shard) -> None:
        for q in (shard.in_q, shard.out_q):
            try:
                q.close()
                q.join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass

    # -- introspection ---------------------------------------------------

    @property
    def has_dataset(self) -> bool:
        return self._n_rows > 0

    def has_row(self, index: int) -> bool:
        return 0 <= index < self._n_rows

    def alive_shards(self) -> List[int]:
        with self._lock:
            return [s.shard_id for s in self._shards if s.alive]

    def nbytes_shared(self) -> int:
        return self._bundle.nbytes()

    def message_ages(self) -> Dict[int, float]:
        """Seconds since each *alive* shard's last message (wedge signal)."""
        now = time.perf_counter()
        with self._lock:
            return {
                s.shard_id: now - s.last_message_at
                for s in self._shards
                if s.alive
            }

    def quarantined_signatures(self) -> List[tuple]:
        with self._lock:
            return sorted(self._quarantine)

    def clear_quarantine(self) -> int:
        """Forget every quarantined signature; returns how many."""
        with self._lock:
            count = len(self._quarantine)
            self._quarantine.clear()
            return count

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def stats(self) -> Dict[str, Any]:
        """Reliability counters + topology (the ``serve-stats`` pool view)."""
        with self._lock:
            payload: Dict[str, Any] = dict(self._counters)
            payload["jobs"] = self.jobs
            payload["alive_shards"] = [
                s.shard_id for s in self._shards if s.alive
            ]
            payload["generations"] = {
                str(s.shard_id): s.generation for s in self._shards
            }
            payload["quarantined_signatures"] = [
                list(map(str, sig)) for sig in sorted(self._quarantine)
            ]
            payload["peak_in_flight"] = self._peak_in_flight
            spawns = list(self._spawn_seconds)
        payload["spawn_ready_seconds"] = {
            "count": len(spawns),
            "mean": float(np.mean(spawns)) if spawns else 0.0,
            "last": spawns[-1] if spawns else 0.0,
            "max": max(spawns) if spawns else 0.0,
        }
        if self._supervisor is not None:
            payload["supervisor"] = self._supervisor.snapshot()
        payload["integrity"] = self.integrity_stats()
        return payload

    # -- integrity: scrub / recover / audit ------------------------------

    def _record_pristine(self, bundle: SharedArrayBundle) -> None:
        """Snapshot the just-published bytes as the recovery source.

        Keeps an in-memory pristine copy and (cache permitting) writes
        a sidecar-verified on-disk snapshot keyed by the bundle's
        content digest — the copy corruption recovery restores from.
        """
        pristine = {key: np.array(bundle[key]) for key in bundle.layout}
        digest = hashlib.sha256()
        for key in sorted(bundle.digests):
            digest.update(key.encode())
            digest.update(bundle.digests[key].encode())
        snapshot_key = digest.hexdigest()
        with self._lock:
            self._pristine = pristine
            self._snapshot_key = snapshot_key
        if self._snapshot_cache is not None:
            try:
                self._snapshot_cache.store(snapshot_key, pristine)
            except OSError:  # pragma: no cover - read-only cache dir
                pass

    def _verified_snapshot(self) -> Dict[str, np.ndarray]:
        """The restore source: sidecar-verified disk copy when available.

        Falls back to the in-memory pristine copy (itself digest-checked
        by :meth:`SharedArrayBundle.restore` at write-back time) when
        the cache is disabled or the disk snapshot is itself corrupt.
        """
        with self._lock:
            snapshot_key = self._snapshot_key
            pristine = self._pristine
        if self._snapshot_cache is not None:
            stored = self._snapshot_cache.load(snapshot_key)
            if stored is not None:
                return stored
        return pristine

    def _scrub_loop(self) -> None:
        while not self._scrub_stop.wait(self.scrub_period):
            try:
                self.scrub_now()
            except IntegrityError:
                # Unrecoverable corruption: the pool is already
                # refusing requests; keep the scrubber alive so the
                # counters keep telling the truth.
                continue
            except Exception:  # pragma: no cover - never kill the scrubber
                continue

    def scrub_now(self) -> List[str]:
        """Re-hash the live segment; recover when corruption is found.

        Returns the corrupt array names (empty for a clean pass).  On
        corruption the recovery sequence runs synchronously: dispatch
        pauses, the corrupt arrays are restored in place from the
        verified snapshot, in-flight results computed against the bad
        bytes are discarded, and every shard slot is rolled onto a
        fresh attach-verified worker.  Raises
        :class:`~repro.core.errors.IntegrityError` when no verified
        restore source covers a corrupt array — the pool then refuses
        all requests instead of serving unverifiable bytes.
        """
        with self._lock:
            if self._closing or self._recovering:
                return []
            bundle = self._bundle
        corrupt = bundle.verify()
        if not corrupt:
            with self._lock:
                self._integrity["scrub_passes"] += 1
            return []
        self._recover(bundle, corrupt)
        return corrupt

    def _recover(self, bundle: SharedArrayBundle, corrupt: List[str]) -> None:
        with self._lock:
            if self._closing or self._recovering or bundle is not self._bundle:
                return
            self._recovering = True
            self._recovery_done.clear()
            self._integrity["scrub_failures"] += 1
            self._integrity["corrupt_arrays_detected"] += len(corrupt)
            # Results dispatched before this instant are now suspect:
            # bump the epoch so _handle discards them instead of
            # serving bytes that failed verification.
            self._integrity_epoch += 1
            self._last_corruption = {
                "detected_at": time.perf_counter(),
                "arrays": sorted(corrupt),
                "recovered_at": None,
            }
            roll_plan = [
                (s.shard_id, s.generation) for s in self._shards if s.alive
            ]
        restored = False
        try:
            verified = self._verified_snapshot()
            for key in corrupt:
                source = verified.get(key)
                if source is None:
                    raise IntegrityError(
                        f"no verified snapshot covers corrupt array {key!r}; "
                        "refusing to serve unverifiable bytes"
                    )
                bundle.restore(key, source)
                with self._lock:
                    self._integrity["restores"] += 1
            leftover = bundle.verify()
            if leftover:
                raise IntegrityError(
                    f"segment still corrupt after restore: {leftover}"
                )
            restored = True
        finally:
            with self._lock:
                self._recovering = False
                if restored:
                    if self._last_corruption is not None:
                        self._last_corruption["recovered_at"] = (
                            time.perf_counter()
                        )
                else:
                    self._corrupt_unrecoverable = True
            self._recovery_done.set()
        self._roll_shards(roll_plan)

    def _roll_shards(self, plan: List[Tuple[int, int]]) -> None:
        """Retire slots that attached the (now restored) segment.

        The in-place restore already healed every attached view — the
        segment is shared — but a worker may hold state *derived* from
        the corrupt bytes (warm caches, lazily-built structures), so
        each slot is rolled onto a fresh worker that re-verifies the
        digests at attach.  One slot at a time: capacity never drops
        by more than one, exactly like a hot swap.
        """
        for shard_id, generation in plan:
            with self._lock:
                if self._closing:
                    return
                self._corrupt_retires.add(shard_id)
            try:
                self.retire_shard(shard_id)
                self._await_generation(shard_id, above=generation, timeout=120.0)
            except ServingError:
                continue  # the supervisor keeps healing the slot
            with self._lock:
                self._integrity["corrupt_shard_respawns"] += 1

    def consume_corrupt_retire(self, shard_id: int) -> bool:
        """Claim (and clear) the corrupt-retire flag for one slot.

        The supervisor calls this alongside
        :meth:`consume_planned_retire` to count corruption-driven
        heals separately from hot-swap rollovers.
        """
        with self._lock:
            if shard_id in self._corrupt_retires:
                self._corrupt_retires.discard(shard_id)
                return True
            return False

    def audit_oracle(self, name: str):
        """Parent-side serial-oracle runner for one served model.

        Built from the pool's *pristine* snapshot arrays — not the
        live segment — and run on the serial interpreter, so its
        answers are independent of both shared-memory corruption and
        fast-kernel bugs.  Cached per published
        bundle; a hot swap invalidates the cache.
        """
        with self._lock:
            bundle = self._bundle
            spec = self._specs.get(name)
            cached = self._audit_runners.get(name)
            pristine = self._pristine
        if spec is None:
            raise ServingError(
                f"unknown model {name!r}; pool serves {self.models}"
            )
        if cached is not None and cached[0] is bundle:
            return cached[1]
        from .engine import SerialPlanRunner

        runner = SerialPlanRunner.twin(_rebuild_plan_runner(name, spec, pristine))
        with self._lock:
            self._audit_runners[name] = (bundle, runner)
        return runner

    def audit_rows(self, indices: Sequence[int]) -> np.ndarray:
        """Pristine dataset rows for the audit oracle.

        Served from the in-memory pristine snapshot — never the live
        segment — so the oracle's inputs cannot themselves be the
        corrupted bytes under audit.
        """
        with self._lock:
            dataset = self._pristine.get(_DATASET_KEY)
        if dataset is None:
            raise ServingError(
                "pool has no shared dataset; audit requests must carry images"
            )
        return dataset[np.asarray(indices, dtype=np.int64)]

    def report_audit_mismatch(self, shard_id: int, model: str) -> None:
        """The audit lane caught a shard answer differing from the oracle.

        Quarantines the (shard, model) pair, escalates to a full
        segment scrub (whose recovery rolls every shard when it also
        finds corruption), and otherwise retires just the offending
        shard so a fresh attach-verified worker replaces it.
        """
        with self._lock:
            if self._closing:
                return
            self._integrity["audit_mismatch_reports"] += 1
            self._audit_quarantined.add((int(shard_id), model))
            alive = False
            generation = 0
            if 0 <= shard_id < len(self._shards):
                shard = self._shards[shard_id]
                alive = shard.alive
                generation = shard.generation
        if self.scrub_now():
            return  # recovery already rolled every slot, this one included
        if not alive:
            return
        with self._lock:
            if self._closing:
                return
            self._corrupt_retires.add(shard_id)
        try:
            self.retire_shard(shard_id)
            self._await_generation(shard_id, above=generation, timeout=120.0)
        except ServingError:
            return
        with self._lock:
            self._integrity["corrupt_shard_respawns"] += 1

    def chaos_corrupt(
        self,
        seed: SeedLike = 0,
        n_flips: int = 8,
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Flip seeded bits in the live shared weights (chaos hook).

        Requires ``chaos_hooks=True``.  Picks a weight-bearing array
        (never the dataset table) unless ``key`` names one, flips
        ``n_flips`` distinct bytes (one seeded bit each), and returns
        what it did — the chaos harness asserts the scrubber detects
        and repairs every flip.  This is the shared-memory equivalent
        of the PR-1 SRAM bit-flip fault model.
        """
        if not self._chaos_hooks:
            raise ServingError("chaos_corrupt requires chaos_hooks=True")
        with self._lock:
            bundle = self._bundle
        if key is None:
            names = [k for k in sorted(bundle.layout) if k != _DATASET_KEY]
            weighty = [
                k
                for k in names
                if "weight" in k.rsplit("/", 1)[-1]
                or k.rsplit("/", 1)[-1].startswith("w_")
            ]
            candidates = weighty or names
            if not candidates:
                raise ServingError("no corruptible arrays are published")
            key = candidates[0]
        elif key not in bundle.layout:
            raise ServingError(f"unknown shared array {key!r}")
        raw = bundle._writable(key).view(np.uint8).reshape(-1)
        rng = child_rng(seed, "chaos-weight-corruption")
        count = int(min(int(n_flips), raw.size))
        positions = rng.choice(raw.size, size=count, replace=False)
        bits = rng.integers(0, 8, size=count)
        for pos, bit in zip(positions, bits):
            raw[int(pos)] ^= np.uint8(1 << int(bit))
        return {
            "key": key,
            "n_flips": count,
            "injected_at": time.perf_counter(),
        }

    def integrity_stats(self) -> Dict[str, Any]:
        """Stable-keyed SDC-defense counters (serve-stats / health)."""
        with self._lock:
            payload: Dict[str, Any] = dict(self._integrity)
            payload["scrub_period"] = self.scrub_period
            payload["audit_quarantined_pairs"] = [
                [sid, model] for sid, model in sorted(self._audit_quarantined)
            ]
            payload["last_corruption"] = (
                dict(self._last_corruption) if self._last_corruption else None
            )
            payload["unrecoverable"] = self._corrupt_unrecoverable
        return payload

    # -- task path -------------------------------------------------------

    def run_batch(
        self,
        model: str,
        indices: Sequence[int],
        images: Optional[np.ndarray],
        deadline: Optional[float] = None,
        return_shard: bool = False,
    ) -> np.ndarray:
        """Run one coalesced batch on some shard; blocks for the result.

        ``images=None`` sends an index-only task (requires a published
        dataset).  ``deadline`` is an absolute ``time.perf_counter``
        timestamp: expired work is shed with :class:`DeadlineExceeded`
        *before* it consumes any shard — at dispatch and again if a
        shard death would otherwise requeue it.  A task signature that
        was previously quarantined fails fast with
        :class:`PoisonedRequest`.  Raises :class:`ServingError` when
        every shard is dead or the task fails in the worker, and
        :class:`IntegrityError` when the shared segment is corrupt
        beyond recovery (refusal, never a wrong answer).

        ``return_shard=True`` returns ``(labels, shard_id)`` so the
        audit lane can attribute a mismatching answer to the shard
        that computed it.
        """
        if model not in self.models and not (
            self._chaos_hooks and model == POISON_MODEL
        ):
            raise ServingError(f"unknown model {model!r}; pool serves {self.models}")
        indices = [int(i) for i in indices]
        signature = (model, tuple(indices))
        while True:
            with self._lock:
                if self._corrupt_unrecoverable:
                    raise IntegrityError(
                        "shared segment failed verification and could not "
                        "be restored; refusing to serve"
                    )
                if signature in self._quarantine:
                    self._counters["quarantine_rejections"] += 1
                    raise PoisonedRequest(
                        f"task {signature!r} is quarantined after killing "
                        f"{self._quarantine[signature]} shard(s); rejected"
                    )
                if deadline is not None and time.perf_counter() >= deadline:
                    self._counters["deadline_shed"] += 1
                    raise DeadlineExceeded(
                        "batch deadline expired before dispatch; shed without "
                        "consuming shard work"
                    )
                if not self._recovering:
                    task = _Task(
                        next(self._task_ids),
                        (model, indices, images),
                        shard_id=-1,
                        deadline=deadline,
                        epoch=self._integrity_epoch,
                    )
                    self._tasks[task.task_id] = task
                    shard = self._pick_shard_locked()
                    if shard is None:
                        del self._tasks[task.task_id]
                        raise ServingError("all worker shards are dead")
                    task.shard_id = shard.shard_id
                    self._peak_in_flight = max(
                        self._peak_in_flight, len(self._tasks)
                    )
                    break
            # Corruption recovery is restoring the segment: hold
            # dispatch until it re-verifies, then retry the admission
            # checks (the window is a few milliseconds of memcpy+hash).
            if not self._recovery_done.wait(timeout=self.task_timeout):
                raise IntegrityError(
                    "corruption recovery did not release dispatch in time"
                )
        shard.in_q.put((task.task_id, model, indices, images))
        result = task.future.result(timeout=self.task_timeout)
        if return_shard:
            return result, task.shard_id
        return result

    def _pick_shard_locked(self) -> Optional[_Shard]:
        """The alive shard with the fewest tasks in flight; ties rotate."""
        load = {s.shard_id: 0 for s in self._shards if s.alive}
        if not load:
            return None
        for task in self._tasks.values():
            if task.shard_id in load:
                load[task.shard_id] += 1
        fewest = min(load.values())
        ties = [s for s in self._shards if s.alive and load[s.shard_id] == fewest]
        return ties[next(self._rr) % len(ties)]

    # -- collector threads ----------------------------------------------

    def _collect(self, shard: _Shard) -> None:
        while True:
            try:
                message = shard.out_q.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if self._closing:
                    # close() fails any stranded tasks itself; don't
                    # requeue onto shards that are also shutting down.
                    return
                if not shard.process.is_alive():
                    self._drain_queue(shard)
                    self._on_shard_death(shard)
                    return
                continue
            self._handle(shard, message)

    def _drain_queue(self, shard: _Shard) -> None:
        """Consume results the shard managed to emit before dying."""
        while True:
            try:
                self._handle(shard, shard.out_q.get_nowait())
            except queue_module.Empty:
                return

    def _handle(self, shard: _Shard, message) -> None:
        kind, _shard_id, task_id, payload = message
        shard.last_message_at = time.perf_counter()
        if kind == "heartbeat":
            return
        stale = False
        requeue_target = None
        with self._lock:
            task = self._tasks.pop(task_id, None)
            if task is None:
                # Duplicate after a requeue raced the original
                # completion: by design an explicit, counted no-op —
                # the future was already resolved exactly once.
                self._counters["duplicate_completions"] += 1
                return
            if kind == "result" and task.epoch < self._integrity_epoch:
                # Computed against bytes that later failed checksum
                # verification: never served.  Re-dispatch at the
                # current epoch; by the time recovery releases
                # dispatch the segment is restored, so the retry
                # reads clean bytes.
                stale = True
                self._integrity["stale_results_discarded"] += 1
                requeue_target = self._pick_shard_locked()
                if requeue_target is not None:
                    task.epoch = self._integrity_epoch
                    task.shard_id = requeue_target.shard_id
                    self._tasks[task.task_id] = task
                    self._counters["requeues"] += 1
        if stale:
            if requeue_target is None:
                task.future.set_exception(
                    IntegrityError(
                        "result discarded after corruption detection and "
                        "no shard is available to re-execute it"
                    )
                )
                return
            # Don't hand the retry to a shard while the segment is
            # still being restored.
            self._recovery_done.wait(timeout=30.0)
            model, indices, images = task.payload
            requeue_target.in_q.put((task.task_id, model, indices, images))
            return
        if kind == "result":
            task.future.set_result(payload)
        elif "NumericSentinelError" in str(payload):
            with self._lock:
                self._integrity["sentinel_trips"] += 1
            task.future.set_exception(
                NumericSentinelError(f"worker refused the batch: {payload}")
            )
        else:
            task.future.set_exception(
                ServingError(f"worker task failed: {payload}")
            )

    def _on_shard_death(self, shard: _Shard) -> None:
        """Triage the dead shard's in-flight tasks.

        Per orphaned task, in order: shed with
        :class:`DeadlineExceeded` when its deadline has passed (a dead
        shard must not hand doomed work to a survivor), quarantine
        with :class:`PoisonedRequest` when it has now been in flight
        across more than ``max_task_retries`` shard deaths, otherwise
        requeue on a surviving shard.  Finally wakes the supervisor.
        """
        now = time.perf_counter()
        with self._lock:
            shard.alive = False
            self._counters["shard_deaths"] += 1
            orphans = [
                t for t in self._tasks.values() if t.shard_id == shard.shard_id
            ]
            assignments = []
            expired: List[_Task] = []
            poisoned: List[_Task] = []
            for task in orphans:
                task.deaths += 1
                if task.deadline is not None and now >= task.deadline:
                    del self._tasks[task.task_id]
                    self._counters["deadline_shed"] += 1
                    expired.append(task)
                    continue
                if task.deaths > self.max_task_retries:
                    del self._tasks[task.task_id]
                    model, indices, _images = task.payload
                    signature = (model, tuple(indices))
                    self._quarantine[signature] = task.deaths
                    self._counters["quarantined"] += 1
                    poisoned.append(task)
                    continue
                target = self._pick_shard_locked()
                if target is None:
                    del self._tasks[task.task_id]
                else:
                    self._counters["requeues"] += 1
                task.shard_id = target.shard_id if target else -1
                assignments.append((task, target))
        for task in expired:
            task.future.set_exception(
                DeadlineExceeded(
                    "deadline expired while the request was in flight on a "
                    "dead shard; shed instead of requeued"
                )
            )
        for task in poisoned:
            model, indices, _images = task.payload
            task.future.set_exception(
                PoisonedRequest(
                    f"task {(model, tuple(indices))!r} was in flight across "
                    f"{task.deaths} shard deaths (> max_task_retries="
                    f"{self.max_task_retries}); quarantined"
                )
            )
        for task, target in assignments:
            if target is None:
                task.future.set_exception(
                    ServingError(
                        "all worker shards died with the request in flight"
                    )
                )
            else:
                model, indices, images = task.payload
                target.in_q.put((task.task_id, model, indices, images))
        self.death_event.set()

    # -- fault injection (tests / chaos harness) -------------------------

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one shard process (the kill-a-shard test hook)."""
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            if shard.shard_id == shard_id and shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=10.0)
                return

    def wedge_shard(self, shard_id: int, seconds: float) -> None:
        """Make one shard sleep without heartbeating (chaos hook).

        Requires ``chaos_hooks=True``.  The shard stays alive but goes
        silent for ``seconds``; a supervisor with ``wedge_timeout``
        shorter than that will declare it wedged, kill it, and respawn.
        """
        if not self._chaos_hooks:
            raise ServingError("wedge_shard requires chaos_hooks=True")
        with self._lock:
            shard = self._shards[shard_id]
            if not shard.alive:
                raise ServingError(f"shard {shard_id} is not alive to wedge")
        shard.in_q.put((_WEDGE, float(seconds)))

    @property
    def supervisor(self):
        """The attached :class:`ShardSupervisor` (None when unsupervised)."""
        return self._supervisor

    # -- lifecycle -------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Stop shards, fail any stranded tasks, release shared memory."""
        self._closing = True
        self._scrub_stop.set()
        if self._scrub_thread is not None and self._scrub_thread.is_alive():
            self._scrub_thread.join(timeout=timeout)
        self._recovery_done.set()  # release any dispatch waiting on recovery
        if self._supervisor is not None:
            self._supervisor.stop()
        for shard in self._shards:
            if shard.process.is_alive():
                try:
                    shard.in_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for shard in self._shards:
            shard.process.join(timeout=timeout)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        for shard in self._shards:
            if shard.collector is not None and shard.collector.is_alive():
                shard.collector.join(timeout=timeout)
        with self._lock:
            stranded = list(self._tasks.values())
            self._tasks.clear()
        for task in stranded:
            if not task.future.done():
                task.future.set_exception(
                    ServingError("pool closed with the request in flight")
                )
        for shard in self._shards:
            for q in (shard.in_q, shard.out_q):
                try:
                    q.close()
                    q.join_thread()
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for bundle in self._retired_bundles:
            bundle.close(unlink=True)
        self._retired_bundles.clear()
        self._bundle.close(unlink=True)

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
