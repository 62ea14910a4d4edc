"""Compile-once plan caching + content-addressed spike-train bundles.

Two caches, two cost profiles:

* **Plan memo** — ``get_plan(model)`` compiles each live model object
  exactly once (weak-keyed, so plans die with their models) and counts
  hits/misses/compiles for ``serve-stats``.
* **Trains cache** — the timed SNN's real cold-start cost is encoding
  one spike train per dataset row (~0.6 ms/image).  A train depends
  only on ``(coder, seed, stream, index, image)`` — never on weights —
  so encoded datasets are cached in memory (bounded LRU) and persisted
  through :class:`~repro.core.artifacts.ArrayBundleCache` as CSR
  ``.npz`` bundles keyed by that content address.  Warm evaluation,
  plan-shipping shard spawn, and learner hot-swap (same coder/seed, new
  weights) all hit this cache instead of re-encoding.

:func:`pack_trains` / :func:`unpack_trains` are the CSR wire format the
bundles and the shared-memory shard shipping both use.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.errors import CompileError
from .compile import compile_model
from .execute import run_plan  # noqa: F401  (re-export convenience)
from .ops import PLAN_CODE_VERSION, CompiledPlan
from .runtime import ExecutionContext

#: Encoded datasets kept in process memory (LRU beyond this).
_TRAINS_MEMO_LIMIT = 8

_lock = threading.Lock()
#: Single-flight locks: a cold ``get_plan``/``cached_trains`` holds one
#: of these across its compile/encode so concurrent first callers block
#: and then take the memo hit, instead of racing N duplicate compiles
#: (and N spurious miss counts) from concurrent serving threads.
_compile_lock = threading.Lock()
_trains_flight_lock = threading.Lock()
_plan_memo: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_trains_memo: "OrderedDict[str, Dict[int, Any]]" = OrderedDict()
_counters: Dict[str, int] = {
    "plan_hits": 0,
    "plan_misses": 0,
    "plan_compiles": 0,
    "trains_hits": 0,
    "trains_misses": 0,
}


def get_plan(model, kind: Optional[str] = None) -> CompiledPlan:
    """The model's compiled plan, compiling at most once per object.

    Raises :class:`~repro.core.errors.CompileError` exactly like
    :func:`~repro.ir.compile.compile_model`; failures are not cached
    (a model whose injector is later cleared can compile then).

    Thread-safe and single-flight: when N threads request the same
    uncompiled model concurrently, exactly one compiles (1 miss,
    1 compile) and the rest block on the flight lock and take hits —
    the counters never drift under the threaded executor.
    """
    weakable = True
    with _lock:
        try:
            plan = _plan_memo.get(model)
        except TypeError:
            # Not weak-referenceable (e.g. a bare object()): let the
            # compiler produce its usual diagnostic, uncached.
            weakable = False
            plan = None
        if plan is not None:
            _counters["plan_hits"] += 1
            return plan
    if not weakable:
        with _lock:
            _counters["plan_misses"] += 1
        plan = compile_model(model, kind=kind)
        with _lock:
            _counters["plan_compiles"] += 1
        return plan
    with _compile_lock:
        with _lock:
            # Double-check: a concurrent caller may have compiled this
            # model while we waited on the flight lock.
            plan = _plan_memo.get(model)
            if plan is not None:
                _counters["plan_hits"] += 1
                return plan
            _counters["plan_misses"] += 1
        plan = compile_model(model, kind=kind)
        with _lock:
            _counters["plan_compiles"] += 1
            try:
                _plan_memo[model] = plan
            except TypeError:
                pass
    return plan


def plan_cache_stats() -> Dict[str, int]:
    """Counter snapshot (surfaced in ``serve-stats``)."""
    with _lock:
        return dict(_counters)


def reset_plan_cache() -> None:
    """Drop memos and zero counters (tests / benchmarks)."""
    with _lock:
        _plan_memo.clear()
        _trains_memo.clear()
        for key in _counters:
            _counters[key] = 0


# ---------------------------------------------------------------------------
# Spike-train bundles (CSR wire format)
# ---------------------------------------------------------------------------


def encode_signature(plan: CompiledPlan) -> Dict[str, Any]:
    """The encode-relevant content of a timed-SNN plan.

    Deliberately excludes weights/thresholds: spike trains depend only
    on the coder, the RNG root and the per-row index, so a hot-swapped
    learner snapshot (new weights, same coder/seed) shares its
    predecessor's encoded dataset.
    """
    from ..core.artifacts import _jsonable, coder_signature

    meta = plan.meta
    if "config" not in meta:
        raise CompileError(
            f"plan {plan.kind!r} carries no encode metadata"
        )
    return {
        "code_version": PLAN_CODE_VERSION,
        "coder": coder_signature(meta.get("coder")),
        "config": _jsonable(meta["config"]),
        "seed": _jsonable(meta.get("seed")),
        "stream": meta.get("stream"),
    }


def _images_digest(images: np.ndarray) -> str:
    images = np.asarray(images)
    digest = hashlib.sha256()
    digest.update(str(images.dtype).encode())
    digest.update(str(images.shape).encode())
    digest.update(np.ascontiguousarray(images).tobytes())
    return digest.hexdigest()[:24]


def trains_key(plan: CompiledPlan, images: np.ndarray) -> str:
    """Content address of one plan's encoded dataset."""
    payload = {
        "encode": encode_signature(plan),
        "images": _images_digest(images),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return "trains-" + hashlib.sha256(blob.encode()).hexdigest()[:24]


def pack_trains(
    trains: Sequence[Any], indices: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Flatten per-index spike trains into CSR arrays (the wire format)."""
    times = [np.asarray(t.times, dtype=np.float64) for t in trains]
    return {
        "indices": np.asarray(list(indices), dtype=np.int64),
        "offsets": np.concatenate(
            [[0], np.cumsum([t.size for t in times])]
        ).astype(np.int64),
        "times": (
            np.concatenate(times) if times else np.empty(0, dtype=np.float64)
        ),
        "inputs": (
            np.concatenate([t.inputs for t in trains])
            if trains
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64),
        "modulation": (
            np.concatenate([t.modulation for t in trains])
            if trains
            else np.empty(0, dtype=np.float64)
        ).astype(np.float64),
        "n_inputs": np.asarray(
            [trains[0].n_inputs if trains else 0], dtype=np.int64
        ),
        "durations": np.asarray(
            [t.duration for t in trains], dtype=np.float64
        ),
    }


def unpack_trains(arrays: Dict[str, np.ndarray]) -> Dict[int, Any]:
    """Rebuild the per-index train dict from CSR arrays (zero-copy slices)."""
    from ..snn.coding import SpikeTrain

    indices = np.asarray(arrays["indices"])
    offsets = np.asarray(arrays["offsets"])
    n_inputs = int(np.asarray(arrays["n_inputs"])[0])
    durations = np.asarray(arrays["durations"])
    trains: Dict[int, Any] = {}
    for j, index in enumerate(indices):
        a, z = int(offsets[j]), int(offsets[j + 1])
        trains[int(index)] = SpikeTrain(
            times=arrays["times"][a:z],
            inputs=arrays["inputs"][a:z],
            n_inputs=n_inputs,
            duration=float(durations[j]),
            modulation=arrays["modulation"][a:z],
        )
    return trains


def cached_trains(
    plan: CompiledPlan,
    images: np.ndarray,
    persist: bool = True,
) -> Dict[int, Any]:
    """Encoded trains for every row of ``images`` (indices ``0..N-1``).

    Checks the in-memory LRU memo, then the on-disk
    :class:`ArrayBundleCache` bundle, and only then encodes — recording
    hits/misses either way.  ``persist=False`` skips the disk layer
    (callers holding throwaway datasets).

    Single-flight like :func:`get_plan`: concurrent cold requests for
    the same dataset block on one encode and take memo hits.
    """
    key = trains_key(plan, images)

    def _memo_hit():
        cached = _trains_memo.get(key)
        if cached is not None:
            _trains_memo.move_to_end(key)
            _counters["trains_hits"] += 1
        return cached

    with _lock:
        cached = _memo_hit()
        if cached is not None:
            return cached
    return _cached_trains_flight(key, plan, images, persist, _memo_hit)


def _cached_trains_flight(key, plan, images, persist, _memo_hit):
    with _trains_flight_lock:
        with _lock:
            cached = _memo_hit()
            if cached is not None:
                return cached
            _counters["trains_misses"] += 1
        return _encode_and_memo(key, plan, images, persist)


def _encode_and_memo(key, plan, images, persist):
    indices = list(range(len(np.atleast_2d(np.asarray(images)))))

    def compute() -> Dict[str, np.ndarray]:
        ctx = ExecutionContext(plan)
        trains = ctx.trains_for(np.atleast_2d(np.asarray(images)), indices)
        return pack_trains(trains, indices)

    arrays: Optional[Dict[str, np.ndarray]] = None
    if persist:
        from ..core.artifacts import ArrayBundleCache, cache_enabled

        if cache_enabled():
            try:
                arrays = ArrayBundleCache().get_or_compute(key, compute)
            except Exception:  # noqa: BLE001 - cache is best-effort
                arrays = None
    if arrays is None:
        arrays = compute()
    trains = unpack_trains(arrays)
    with _lock:
        _trains_memo[key] = trains
        _trains_memo.move_to_end(key)
        while len(_trains_memo) > _TRAINS_MEMO_LIMIT:
            _trains_memo.popitem(last=False)
    return trains


def trains_arrays_for_shipping(
    plan: CompiledPlan, images: np.ndarray
) -> Dict[str, np.ndarray]:
    """CSR arrays of the whole encoded dataset (shard-shipping form)."""
    trains = cached_trains(plan, images)
    indices = sorted(trains)
    return pack_trains([trains[i] for i in indices], indices)


def context_for(
    plan: CompiledPlan,
    images: Optional[np.ndarray] = None,
    warm: bool = False,
) -> ExecutionContext:
    """A fresh execution context, optionally pre-seeded with cached trains."""
    ctx = ExecutionContext(plan)
    if warm and images is not None and plan.requires_indices:
        ctx.preload_trains(cached_trains(plan, images))
    return ctx
