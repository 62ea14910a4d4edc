"""Outside-in span tracing of the program's layers.

The tracer wraps public functions and methods of the program from the
benchmark's own files; no file of the program changes.  A span records
``(id, parent, name, start, end, pid, thread, ok, key)``: the parent is
the innermost traced call open on the same thread, ``key`` is a small
per-call tag (a batch's request indices, an experiment id, a row
count), and times come from ``time.perf_counter``, which on Linux is
``CLOCK_MONOTONIC`` and therefore shared by every process of the run.

Spans stay in memory and are written once, when the process (or a pool
shard) finishes.  Fork-started shards inherit the patched functions;
the wrapper around the shard entry point drops the spans inherited from
the parent and writes the shard's own to ``shard-<pid>.json`` as the
shard exits.

Wrappers are installed only in a traced run (:func:`install`); an
untraced run never imports this module's patches.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (id, parent, name, start, end, pid, thread, ok, key)
Span = Tuple[int, int, str, float, float, int, int, bool, Any]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, key: Any = None) -> None:
        """Add a span measured elsewhere (e.g. interpreter start → import)."""
        self.spans.append(
            (next(self._ids), -1, name, start, end, os.getpid(), threading.get_ident(), True, key)
        )

    def wrap(self, fn: Callable, name: str, key: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``key(*args, **kwargs)`` tags it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            tag = key(*args, **kwargs) if key is not None else None
            stack.append(sid)
            ok = False
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, start, end, os.getpid(), threading.get_ident(), ok, tag)
                )

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str, key=None) -> None:
        """Replace ``module.attr`` and every imported alias of it.

        Modules that did ``from module import attr`` hold their own
        reference; every loaded ``repro`` module whose attribute is the
        same function object gets the wrapper too.
        """
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        traced = self.wrap(original, name, key)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, traced)

    def patch_method(self, module: str, cls: str, attr: str, name: str, key=None) -> None:
        """Replace ``cls.attr`` (a plain method or a classmethod)."""
        klass = getattr(importlib.import_module(module), cls)
        raw = klass.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(raw.__func__, name, key))
        else:
            traced = self.wrap(raw, name, key)
        setattr(klass, attr, traced)

    # -- persistence -----------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load_spans(paths: Iterable[str]) -> List[Span]:
    """Spans from one or more dump files (keys come back as tuples)."""
    spans: List[Span] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for row in json.load(handle):
                key = row[8]
                spans.append(tuple(row[:8]) + (tuple(key) if isinstance(key, list) else key,))
    return spans


# ---------------------------------------------------------------------------
# The layers this benchmark traces
# ---------------------------------------------------------------------------


def _indices_key(_self, *args, **kwargs):
    indices = kwargs.get("indices", args[0] if args else ())
    return tuple(int(i) for i in indices)


def _run_batch_key(_self, model, indices, *args, **kwargs):
    return tuple(int(i) for i in indices)


def _run_plan_key(plan, images=None, *args, **kwargs):
    from repro.ir.backends.numpy_tiled import rowwise_exact, worker_count

    rows = 0 if images is None else int(len(images))
    return (rows, bool(rowwise_exact(plan) and worker_count() > 1))


def _experiment_key(spec, **_kwargs):
    return spec.experiment_id


#: (module, function, span name, key) for module-level functions.
FUNCTIONS = (
    ("repro.ir.execute", "run_plan", "ir.run_plan", _run_plan_key),
    ("repro.ir.execute", "check_plan_consts", "ir.check_consts", None),
    ("repro.ir.backends.lif_scan", "scan_winners", "ir.lif_scan", None),
    ("repro.ir.compile", "compile_model", "ir.compile", None),
    ("repro.snn.batched", "encode_indexed", "ir.encode", None),
    ("repro.snn.batched", "predict_batch", "snn.legacy_eval", None),
    ("repro.hardware.sweep", "run_sweep", "hardware.sweep", None),
    ("repro.datasets.digits", "load_digits", "datasets.generate", None),
    ("repro.datasets.shapes", "load_shapes", "datasets.generate", None),
    ("repro.datasets.spoken", "load_spoken", "datasets.generate", None),
)

#: (module, class, method, span name, key) for methods.
METHODS = (
    ("repro.serve.engine", "InferenceServer", "submit", "serve.engine.submit", None),
    ("repro.serve.engine", "PlanRunner", "run", "serve.engine.run", _indices_key),
    ("repro.serve.breaker", "CircuitBreaker", "record_success", "serve.breaker.record_success", None),
    ("repro.serve.metrics", "ServingMetrics", "record_submit", "serve.metrics.record_submit", None),
    ("repro.serve.metrics", "ServingMetrics", "record_batch", "serve.metrics.record_batch", None),
    ("repro.serve.workers", "ShardedPool", "run_batch", "serve.workers.run_batch", _run_batch_key),
    ("repro.serve.workers", "ShardedPool", "__init__", "serve.workers.spawn", None),
    ("repro.serve.shm", "SharedArrayBundle", "create", "serve.shm.publish", None),
    ("repro.ir.backends.numpy_tiled", "NumpyTiledBackend", "run", "ir.backend", None),
    ("repro.snn.network", "SNNTrainer", "train", "snn.train", None),
    ("repro.snn.network", "SNNTrainer", "predict", "snn.eval", None),
    ("repro.mlp.trainer", "BackPropTrainer", "train", "mlp.train", None),
    ("repro.core.experiment", "ExperimentSpec", "run", "analysis.experiment", _experiment_key),
)


def _patch_model_cache(tracer: Tracer) -> None:
    """``ModelCache.get_or_train`` with its training callable as a child.

    A call with a ``core.artifacts.train_fn`` child is a miss, whose
    self time is the cache's own work (key, store); a call without one
    is a hit, a load.
    """
    from repro.core.artifacts import ModelCache

    original = ModelCache.__dict__["get_or_train"]
    signature = inspect.signature(original)

    def get_or_train(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["train_fn"] = tracer.wrap(
            bound.arguments["train_fn"], "core.artifacts.train_fn"
        )
        return original(*bound.args, **bound.kwargs)

    ModelCache.get_or_train = tracer.wrap(get_or_train, "core.artifacts.get_or_train")


def _patch_shard_entry(tracer: Tracer, shard_dir: str) -> None:
    """Shards start from the parent's memory: keep only their own spans."""
    import repro.serve.workers as workers

    original = workers._shard_main

    def shard_main(*args, **kwargs):
        tracer.spans.clear()
        tracer._local = threading.local()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(shard_dir, f"shard-{os.getpid()}.json"))

    workers._shard_main = shard_main


def install(tracer: Tracer, shard_dir: str) -> Tracer:
    """Wrap every traced layer; import the program first."""
    import repro.analysis  # noqa: F401  (registers experiments, binds aliases)
    import repro.serve.loadgen  # noqa: F401
    import repro.serve.workers  # noqa: F401

    for module, attr, name, key in FUNCTIONS:
        tracer.patch_function(module, attr, name, key)
    for module, cls, attr, name, key in METHODS:
        tracer.patch_method(module, cls, attr, name, key)
    _patch_model_cache(tracer)
    _patch_shard_entry(tracer, shard_dir)
    return tracer


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float = float("-inf"),
            hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for sid, parent, _name, start, end, pid, *_rest in spans:
        if parent >= 0:
            children.setdefault((pid, parent), []).append((start, end))
    result = {}
    for sid, _parent, _name, start, end, pid, *_rest in spans:
        inner = covered(children.get((pid, sid), ()), start, end)
        result[(pid, sid)] = (end - start) - inner
    return result


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, start, end, pid, *_rest in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[(pid, sid)]
    return table
