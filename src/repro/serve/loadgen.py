"""Closed- and open-loop load generation against the serving layer.

Two canonical arrival models (the same pair inference-server papers
benchmark under):

* **Closed loop** — ``concurrency`` client threads, each issuing its
  next request the moment the previous one completes.  Offered load
  adapts to service rate; the interesting outputs are throughput and
  the latency distribution at a fixed concurrency.
* **Open loop** — requests arrive on a fixed schedule
  (``offered_rps``), regardless of completions.  Offered load does
  *not* adapt, so an overloaded server must shed — the interesting
  outputs are achieved-vs-offered throughput and the shed rate
  (admission control visibly working instead of the queue growing
  without bound).

Client-side request indices are drawn from per-client child RNGs
(``child_rng(seed, "loadgen", client_id)``), so a load run's request
sequence is reproducible independent of thread interleaving.

:func:`run_loadtest` is the CLI / benchmark driver: it trains (or
loads from the PR2 model cache) the requested models, builds an
:class:`~repro.serve.engine.InferenceServer` over the chosen backend
(in-process or a :class:`~repro.serve.workers.ShardedPool`), generates
load, verifies served answers are bit-identical to direct predictions,
and returns one JSON-ready payload (host metadata included).
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.errors import DeadlineExceeded, Overloaded, ServingError
from ..core.hostinfo import host_metadata
from ..core.rng import child_rng
from .batcher import BatchPolicy
from .engine import InferenceServer

#: Model names the driver knows how to build.
KNOWN_MODELS = ("mlp", "mlp-q", "snnwt", "snnwot", "snnbp")


class GracefulDrain:
    """SIGTERM/SIGINT-driven graceful shutdown for load runs.

    Entering the context installs handlers that *set an event* instead
    of raising ``KeyboardInterrupt`` mid-batch: load loops poll
    :attr:`stop` and exit cleanly, the server drains its queues, and
    the already-collected metrics are still checkpointed to the output
    payload.  Exiting restores the previous handlers.  ``triggered``
    reports whether a signal arrived (the payload's ``drained`` flag).

    Installation is a no-op off the main thread (Python only allows
    signal handlers there), so library callers and tests can use the
    same code path unconditionally.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self.stop = threading.Event()
        self._previous: Dict[int, Any] = {}
        self._installed = False

    @property
    def triggered(self) -> bool:
        return self.stop.is_set()

    def _handle(self, _signum, _frame) -> None:
        self.stop.set()

    def __enter__(self) -> "GracefulDrain":
        if threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
            self._installed = True
        return self

    def __exit__(self, *_exc) -> None:
        if self._installed:
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._previous.clear()
            self._installed = False


def closed_loop(
    server: InferenceServer,
    model: str,
    n_indices: int,
    concurrency: int = 8,
    duration_seconds: float = 5.0,
    seed: int = 0,
    timeout: float = 60.0,
    deadline_ms: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
) -> Dict[str, Any]:
    """Drive ``concurrency`` synchronous clients for ``duration_seconds``.

    ``deadline_ms`` attaches a per-request latency budget (deadline
    sheds are tallied separately from hard errors).  ``stop_event``
    ends the run early — the :class:`GracefulDrain` hook.
    """
    if concurrency < 1:
        raise ServingError(f"concurrency must be >= 1, got {concurrency}")
    if n_indices < 1:
        raise ServingError(f"need a non-empty index space, got {n_indices}")
    stop = time.perf_counter() + duration_seconds
    counts = [0] * concurrency
    deadline_sheds = [0] * concurrency
    errors: List[str] = []
    errors_lock = threading.Lock()

    def client(client_id: int) -> None:
        rng = child_rng(seed, "loadgen", client_id)
        while time.perf_counter() < stop:
            if stop_event is not None and stop_event.is_set():
                return
            index = int(rng.integers(n_indices))
            try:
                server.predict(
                    model, index=index, timeout=timeout, deadline_ms=deadline_ms
                )
            except DeadlineExceeded:
                deadline_sheds[client_id] += 1
                continue
            except Exception as exc:  # noqa: BLE001 — tally, keep driving
                with errors_lock:
                    errors.append(repr(exc))
                continue
            counts[client_id] += 1

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"repro-client-{cid}")
        for cid in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    total = int(sum(counts))
    return {
        "mode": "closed",
        "concurrency": concurrency,
        "duration_seconds": round(duration_seconds, 3),
        "wall_seconds": round(wall, 3),
        "client_requests": total,
        "client_errors": len(errors),
        "client_deadline_shed": int(sum(deadline_sheds)),
        "error_samples": errors[:3],
        "client_rps": round(total / wall, 2) if wall > 0 else 0.0,
    }


def open_loop(
    server: InferenceServer,
    model: str,
    n_indices: int,
    offered_rps: float = 200.0,
    duration_seconds: float = 5.0,
    seed: int = 0,
    timeout: float = 60.0,
    deadline_ms: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
) -> Dict[str, Any]:
    """Offer a fixed arrival rate; count sheds instead of slowing down."""
    if offered_rps <= 0:
        raise ServingError(f"offered_rps must be positive, got {offered_rps}")
    if n_indices < 1:
        raise ServingError(f"need a non-empty index space, got {n_indices}")
    rng = child_rng(seed, "loadgen", 0)
    n_requests = max(int(offered_rps * duration_seconds), 1)
    interval = 1.0 / offered_rps
    futures = []
    shed = 0
    deadline_shed = 0
    errors: List[str] = []
    start = time.perf_counter()
    for j in range(n_requests):
        if stop_event is not None and stop_event.is_set():
            break
        target = start + j * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        index = int(rng.integers(n_indices))
        try:
            futures.append(
                server.submit(model, index=index, deadline_ms=deadline_ms)
            )
        except Overloaded:
            shed += 1
        except DeadlineExceeded:
            deadline_shed += 1
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))
    completed = 0
    for future in futures:
        try:
            future.result(timeout)
            completed += 1
        except DeadlineExceeded:
            deadline_shed += 1
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))
    wall = time.perf_counter() - start
    return {
        "mode": "open",
        "offered_rps": offered_rps,
        "duration_seconds": round(duration_seconds, 3),
        "wall_seconds": round(wall, 3),
        "client_requests": completed,
        "client_shed": shed,
        "client_deadline_shed": deadline_shed,
        "client_errors": len(errors),
        "error_samples": errors[:3],
        "client_rps": round(completed / wall, 2) if wall > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Driver: models -> server -> load -> payload
# ---------------------------------------------------------------------------


def build_models(
    names: Sequence[str], dataset: str = "digits"
) -> Dict[str, Any]:
    """Train (cache-warm) the requested model set on a workload.

    Uses the standard experiment recipes of :mod:`repro.analysis.common`
    so served models are *the same artifacts* the report evaluates —
    and the PR2 content-addressed cache makes repeat loadtests skip
    straight to inference.
    """
    from ..analysis import common
    from ..core.config import (
        mnist_mlp_config,
        mnist_snn_config,
        mpeg7_mlp_config,
        mpeg7_snn_config,
        sad_mlp_config,
        sad_snn_config,
    )

    loaders = {
        "digits": (common.digits, mnist_mlp_config, mnist_snn_config),
        "shapes": (common.shapes, mpeg7_mlp_config, mpeg7_snn_config),
        "spoken": (common.spoken, sad_mlp_config, sad_snn_config),
    }
    if dataset not in loaders:
        raise ServingError(
            f"unknown dataset {dataset!r}; pick one of {sorted(loaders)}"
        )
    unknown = sorted(set(names) - set(KNOWN_MODELS))
    if unknown:
        raise ServingError(
            f"unknown model(s) {unknown}; pick from {list(KNOWN_MODELS)}"
        )
    loader, mlp_config, snn_config = loaders[dataset]
    train_set, test_set = loader()
    models: Dict[str, Any] = {}
    if {"mlp", "mlp-q"} & set(names):
        mlp = common.train_mlp_model(mlp_config(), train_set)
        if "mlp" in names:
            models["mlp"] = mlp
        if "mlp-q" in names:
            from ..mlp.quantized import QuantizedMLP

            models["mlp-q"] = QuantizedMLP(mlp)
    if {"snnwt", "snnwot"} & set(names):
        network = common.train_snn_model(snn_config(), train_set)
        if "snnwt" in names:
            models["snnwt"] = network
        if "snnwot" in names:
            from ..snn.snn_wot import SNNWithoutTime

            models["snnwot"] = SNNWithoutTime(network)
    if "snnbp" in names:
        models["snnbp"] = common.train_snn_bp_model(snn_config(), train_set)
    return {"models": models, "train": train_set, "test": test_set}


def build_live_learner_model(
    dataset: str = "digits",
    n_neurons: int = 30,
    epochs: int = 2,
    train_images: int = 400,
    seed: int = 0,
):
    """Train (cache-warm) the small SNN tenant the live learner grows.

    The continual-learning tenant deliberately starts *small* — a few
    dozen neurons over a few hundred images — so each STDP window is
    cheap enough to run inside a serving loop, and the offline
    baseline leaves headroom for the stream to move accuracy in either
    direction.  Cached under the standard ``stdp-v1`` recipe, so the
    expensive part of a live-learning run amortizes across sessions.
    """
    import dataclasses

    from ..analysis import common
    from ..core.config import (
        mnist_snn_config,
        mpeg7_snn_config,
        sad_snn_config,
    )

    loaders = {
        "digits": (common.digits, mnist_snn_config),
        "shapes": (common.shapes, mpeg7_snn_config),
        "spoken": (common.spoken, sad_snn_config),
    }
    if dataset not in loaders:
        raise ServingError(
            f"unknown dataset {dataset!r}; pick one of {sorted(loaders)}"
        )
    loader, snn_config = loaders[dataset]
    config = dataclasses.replace(
        snn_config().with_neurons(int(n_neurons)), seed=int(seed)
    )
    train_set, _ = loader()
    subset = train_set.take(min(int(train_images), len(train_set)))
    return common.train_snn_model(config, subset, epochs=int(epochs))


def direct_predictions(
    model, images: np.ndarray, indices: Sequence[int], seed=None
) -> np.ndarray:
    """Reference labels for ``indices`` via the model's direct API.

    The oracle for the bit-identity check: the timed SNN goes through
    :func:`~repro.snn.batched.predict_batch` with explicit indices (the
    same per-index RNG streams the server uses); deterministic models
    predict the rows directly.
    """
    from ..snn.batched import predict_batch
    from ..snn.network import SpikingNetwork

    rows = np.atleast_2d(images)[list(indices)]
    if isinstance(model, SpikingNetwork):
        return predict_batch(model, rows, indices=indices, seed=seed)
    if hasattr(model, "predict_images"):
        return np.asarray(model.predict_images(rows))
    return np.asarray(model.predict(rows))


def verify_bit_identity(
    server: InferenceServer,
    models: Dict[str, Any],
    images: np.ndarray,
    n_check: int = 32,
    seed: int = 0,
) -> Dict[str, bool]:
    """Served labels == direct labels, per model, on a random sample."""
    rng = child_rng(seed, "loadgen-verify")
    n = len(images)
    results: Dict[str, bool] = {}
    for name in server.models:
        indices = sorted(
            int(i) for i in rng.choice(n, size=min(n_check, n), replace=False)
        )
        served = server.predict_many(name, indices=indices)
        expected = direct_predictions(models[name], images, indices)
        results[name] = bool(np.array_equal(served, expected))
    return results


def run_loadtest(
    models: Sequence[str] = ("snnwot",),
    dataset: str = "digits",
    jobs: int = 0,
    max_batch: int = 16,
    max_wait_us: float = 2000.0,
    max_queue: int = 1024,
    duration_seconds: float = 5.0,
    concurrency: int = 8,
    mode: str = "closed",
    offered_rps: float = 200.0,
    seed: int = 0,
    warm: bool = True,
    verify: bool = True,
    deadline_ms: Optional[float] = None,
    max_retries: int = 2,
    supervise: bool = True,
    audit_rate: float = 0.0,
    scrub_period: Optional[float] = None,
) -> Dict[str, Any]:
    """Train, serve, load, measure; returns the JSON-ready payload.

    ``jobs=0`` serves in-process; ``jobs>=1`` serves through a
    :class:`~repro.serve.workers.ShardedPool` of that many worker
    processes sharing weights and the test-image table via shared
    memory — supervised (dead shards respawn) unless ``supervise``
    is off.  ``deadline_ms`` attaches a per-request latency budget;
    ``max_retries`` bounds per-task shard-death requeues before
    quarantine.  Every model is served as a compiled IR plan, verified
    bit-identical against direct predictions when ``verify`` is on; a
    model that does not compile raises :class:`ServingError`.
    ``audit_rate`` samples that
    fraction of served batches onto the serial-oracle audit lane
    (``0.0`` keeps the request path bit-identical to an audit-free
    server); ``scrub_period`` enables the pool's background integrity
    scrubber (pool backends only).  SIGTERM/SIGINT drain gracefully:
    load stops, queues flush, and the metrics collected so far are
    still returned (the payload's ``drained`` flag records the
    interruption).
    """
    if mode not in ("closed", "open"):
        raise ServingError(f"mode must be 'closed' or 'open', got {mode!r}")
    names = list(dict.fromkeys(models))  # dedupe, keep order
    built = build_models(names, dataset=dataset)
    test_images = np.asarray(built["test"].images)
    policy = BatchPolicy(
        max_batch=max_batch, max_wait_us=max_wait_us, max_queue=max_queue
    )
    pool = None
    if jobs >= 1:
        from .supervisor import SupervisorPolicy
        from .workers import ShardedPool

        pool = ShardedPool(
            built["models"],
            jobs=jobs,
            images=test_images,
            seed=seed,
            warm=warm,
            max_task_retries=max_retries,
            supervisor=SupervisorPolicy(seed=seed) if supervise else None,
            scrub_period=scrub_period,
        )
        server = InferenceServer(
            pool=pool,
            policy=policy,
            images=test_images,
            audit_rate=audit_rate,
            audit_seed=seed,
        )
    else:
        server = InferenceServer.from_models(
            built["models"],
            policy=policy,
            images=test_images,
            seed=seed,
            audit_rate=audit_rate,
            audit_seed=seed,
        )
    payload: Dict[str, Any] = {
        "loadtest": {
            "mode": mode,
            "dataset": dataset,
            "models": names,
            "jobs": jobs,
            "max_batch": max_batch,
            "max_wait_us": max_wait_us,
            "duration_seconds": duration_seconds,
            "concurrency": concurrency,
            "offered_rps": offered_rps if mode == "open" else None,
            "deadline_ms": deadline_ms,
            "max_retries": max_retries,
            "seed": seed,
            "audit_rate": audit_rate,
            "scrub_period": scrub_period,
            "n_test_images": int(len(test_images)),
        },
        "host": host_metadata(),
        "models": {},
    }
    try:
        with GracefulDrain() as drain:
            if warm and jobs == 0:
                server.warm()
            if verify:
                payload["bit_identical"] = verify_bit_identity(
                    server, built["models"], test_images, seed=seed
                )
            for name in names:
                if drain.triggered:
                    break
                for metrics in server.metrics.values():
                    metrics.reset()
                if mode == "closed":
                    client = closed_loop(
                        server,
                        name,
                        len(test_images),
                        concurrency=concurrency,
                        duration_seconds=duration_seconds,
                        seed=seed,
                        deadline_ms=deadline_ms,
                        stop_event=drain.stop,
                    )
                else:
                    client = open_loop(
                        server,
                        name,
                        len(test_images),
                        offered_rps=offered_rps,
                        duration_seconds=duration_seconds,
                        seed=seed,
                        deadline_ms=deadline_ms,
                        stop_event=drain.stop,
                    )
                payload["models"][name] = {
                    "model": name,
                    **server.metrics[name].snapshot(),
                    "breaker": server.breakers[name].snapshot(),
                    "client": client,
                }
            payload["drained"] = drain.triggered
            if pool is not None:
                payload["pool"] = pool.stats()
            from ..ir import plan_cache_stats

            payload["plan_cache"] = plan_cache_stats()
            payload["integrity"] = server.integrity()
            payload["health"] = server.health()
    finally:
        server.close()
    return payload
