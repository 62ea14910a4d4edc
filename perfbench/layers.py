"""Per-layer metrics of a traced run, computed from its spans.

Every workload reports every metric of :data:`PER_LAYER`; a layer the
workload never calls reports zero calls and zero time.  The
unattributed remainder is the time on the workload's critical thread
that no traced layer covers:

* serving: the main thread from process start to ready, plus the
  batcher thread during the closed-loop capacity phase;
* report: the main thread of the cold and of the warm pass process,
  from process start to the last experiment's end.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Sequence

import numpy as np

from .trace import covered, layer_table, self_times

S = namedtuple("S", "id parent name start end pid tid ok key")

#: Experiments of the ``report`` workload: every registered one except
#: ``sensitivity`` (its nine uncached fits would turn the warm pass
#: into a second training measurement).
EXPERIMENTS = (
    "design-sweep", "fault-sweep", "fig14", "fig5", "fig6", "fig8",
    "scale-study", "sec45", "sec5", "table1", "table2", "table3",
    "table4", "table5", "table6", "table7", "table8", "table9",
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("serve.engine.submit_us", "us", "lower"),
    ("serve.engine.run_us_per_batch", "us", "lower"),
    ("serve.breaker.record_us", "us", "lower"),
    ("serve.batcher.rows_per_batch", "rows", "higher"),
    ("serve.batcher.queue_wait_ms_p50", "ms", "lower"),
    ("serve.metrics.record_us_per_batch", "us", "lower"),
    ("serve.metrics.retained_samples", "count", "lower"),
    ("serve.workers.round_trip_ms_p50", "ms", "lower"),
    ("serve.workers.shard_exec_ms_p50", "ms", "lower"),
    ("serve.workers.ipc_ms_p50", "ms", "lower"),
    ("serve.workers.busy_shards_mean", "shards", "higher"),
    ("serve.workers.spawn_s", "s", "lower"),
    ("serve.shm.publish_ms", "ms", "lower"),
    ("serve.workers.requeues", "count", "lower"),
    ("serve.workers.respawns", "count", "lower"),
    ("ir.run_plan_us_per_batch", "us", "lower"),
    ("ir.backend_us_per_batch", "us", "lower"),
    ("ir.front_door_us_per_batch", "us", "lower"),
    ("ir.check_consts_us_per_batch", "us", "lower"),
    ("ir.lif_scan_ms_per_batch", "ms", "lower"),
    ("ir.rowblock_calls", "count", "lower"),
    ("ir.rowblock_s", "s", "lower"),
    ("ir.compile_ms", "ms", "lower"),
    ("ir.plan_cache_hits", "count", "higher"),
    ("ir.plan_cache_misses", "count", "lower"),
    ("ir.encode_s", "s", "lower"),
    ("snn.train_s", "s", "lower"),
    ("mlp.train_s", "s", "lower"),
    ("snn.eval_s", "s", "lower"),
    ("snn.legacy_eval_s", "s", "lower"),
    ("hardware.sweep_s", "s", "lower"),
    ("core.artifacts.hits", "count", "higher"),
    ("core.artifacts.misses", "count", "lower"),
    ("core.artifacts.stores", "count", "lower"),
    ("core.artifacts.load_s", "s", "lower"),
    ("core.artifacts.store_s", "s", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("import_s", "s", "lower"),
) + tuple(
    (f"analysis.{experiment}.{which}_s", "s", "lower")
    for experiment in EXPERIMENTS
    for which in ("cold", "warm")
) + (("unattributed_s", "s", "lower"),)

#: Rows from which ``numpy-tiled`` splits a row-exact batch into blocks.
ROWBLOCK_MIN_ROWS = 64


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _p50(values: Sequence[float]) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def _durations(spans: List[S], name: str) -> List[float]:
    return [s.end - s.start for s in spans if s.name == name]


def _children(spans: List[S]) -> Dict[tuple, List[S]]:
    out: Dict[tuple, List[S]] = {}
    for s in spans:
        if s.parent >= 0:
            out.setdefault((s.pid, s.parent), []).append(s)
    return out


def _common(spans: List[S], window: List[S]) -> Dict[str, float]:
    """IR, training, cache and dataset layers shared by every workload."""
    kids = _children(spans)
    plans = [s for s in window if s.name == "ir.run_plan"]
    front = [
        (s.end - s.start)
        - sum(c.end - c.start for c in kids.get((s.pid, s.id), ()) if c.name == "ir.backend")
        for s in plans
    ]
    rowblock = [
        s for s in spans
        if s.name == "ir.run_plan" and s.key[1] and s.key[0] >= ROWBLOCK_MIN_ROWS
    ]
    selfs = self_times(spans)
    caches = [s for s in spans if s.name == "core.artifacts.get_or_train"]
    missed = {
        (s.pid, s.id) for s in caches
        if any(c.name == "core.artifacts.train_fn" for c in kids.get((s.pid, s.id), ()))
    }
    return {
        "ir.run_plan_us_per_batch": _mean([s.end - s.start for s in plans]) * 1e6,
        "ir.backend_us_per_batch": _mean(_durations(window, "ir.backend")) * 1e6,
        "ir.front_door_us_per_batch": _mean(front) * 1e6,
        "ir.check_consts_us_per_batch": _mean(_durations(window, "ir.check_consts")) * 1e6,
        "ir.lif_scan_ms_per_batch": _mean(_durations(window, "ir.lif_scan")) * 1e3,
        "ir.rowblock_calls": float(len(rowblock)),
        "ir.rowblock_s": sum(s.end - s.start for s in rowblock),
        "ir.compile_ms": sum(_durations(spans, "ir.compile")) * 1e3,
        "ir.encode_s": sum(_durations(spans, "ir.encode")),
        "snn.train_s": sum(_durations(spans, "snn.train")),
        "mlp.train_s": sum(_durations(spans, "mlp.train")),
        "snn.eval_s": sum(_durations(spans, "snn.eval")),
        "snn.legacy_eval_s": sum(_durations(spans, "snn.legacy_eval")),
        "hardware.sweep_s": sum(_durations(spans, "hardware.sweep")),
        "core.artifacts.load_s": sum(
            s.end - s.start for s in caches if (s.pid, s.id) not in missed
        ),
        "core.artifacts.store_s": sum(selfs[key] for key in missed),
    }


def _counters(summaries: Sequence[dict]) -> Dict[str, float]:
    """Counters the measured processes reported themselves."""
    out = {}
    for metric, section, key in (
        ("ir.plan_cache_hits", "plan_cache", "plan_hits"),
        ("ir.plan_cache_misses", "plan_cache", "plan_misses"),
        ("core.artifacts.hits", "cache", "hits"),
        ("core.artifacts.misses", "cache", "misses"),
        ("core.artifacts.stores", "cache", "stores"),
    ):
        out[metric] = float(sum(s.get(section, {}).get(key, 0) for s in summaries))
    out["import_s"] = _mean([s["import_s"] for s in summaries])
    return out


def _main_thread(spans: List[S], pid: int) -> int:
    return next(s.tid for s in spans if s.pid == pid and s.name == "import")


def _generate_s(spans: List[S], pids: Sequence[int]) -> float:
    return _mean([
        sum(s.end - s.start for s in spans if s.pid == pid and s.name == "datasets.generate")
        for pid in pids
    ])


def _zeros() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def serving_layers(raw_spans, main: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced ``serve-main`` process."""
    spans = [S(*s) for s in raw_spans]
    pid = main["pid"]
    cap, last = main["phases"][0], main["phases"][-1]
    lo, hi = cap["start"], last["drained"]
    window = [s for s in spans if lo <= s.start and s.end <= hi]
    in_process = main["jobs"] == 0
    batches = sorted(
        (s for s in window if s.pid == pid
         and s.name == ("serve.engine.run" if in_process else "serve.workers.run_batch")),
        key=lambda s: s.start,
    )
    # Queue wait is taken where latency is: the fixed-rate phase when
    # there is one (FIFO per model maps the k-th submit to its call).
    submits = sorted(
        (s for s in window if s.name == "serve.engine.submit" and s.ok
         and s.start >= last["start"]),
        key=lambda s: s.start,
    )
    waits, k = [], 0
    for batch in (b for b in batches if b.start >= last["start"]):
        for submit in submits[k:k + len(batch.key)]:
            waits.append(batch.start - submit.start)
        k += len(batch.key)
    shard_runs = [s for s in window if s.name == "serve.engine.run" and s.pid != pid]
    by_key: Dict[tuple, List[S]] = {}
    for s in shard_runs:
        by_key.setdefault(s.key, []).append(s)
    ipc = []
    for batch in batches if not in_process else ():
        inner = next(
            (s for s in by_key.get(batch.key, ())
             if batch.start <= s.start and s.end <= batch.end),
            None,
        )
        if inner is not None:
            ipc.append((batch.end - batch.start) - (inner.end - inner.start))
    record_batch = _durations(window, "serve.metrics.record_batch")
    metrics = _zeros()
    metrics.update(_common(spans, window))
    metrics.update(_counters([main]))
    metrics.update({
        "serve.engine.submit_us": _mean(_durations(window, "serve.engine.submit")) * 1e6,
        "serve.engine.run_us_per_batch": _mean(
            [s.end - s.start for s in batches] if in_process else []) * 1e6,
        "serve.breaker.record_us": _mean(
            _durations(window, "serve.breaker.record_success")) * 1e6,
        "serve.batcher.rows_per_batch": _mean([len(s.key) for s in batches]),
        "serve.batcher.queue_wait_ms_p50": _p50(waits) * 1e3,
        "serve.metrics.record_us_per_batch": (
            (sum(_durations(window, "serve.metrics.record_submit")) + sum(record_batch))
            / len(record_batch) * 1e6 if record_batch else 0.0
        ),
        "serve.metrics.retained_samples": float(main["retained_samples"]),
        "serve.workers.round_trip_ms_p50": _p50(
            [] if in_process else [s.end - s.start for s in batches]) * 1e3,
        "serve.workers.shard_exec_ms_p50": _p50([s.end - s.start for s in shard_runs]) * 1e3,
        "serve.workers.ipc_ms_p50": _p50(ipc) * 1e3,
        "serve.workers.busy_shards_mean": covered_sum(
            [(s.start, s.end) for s in shard_runs], cap["start"], cap["end"]
        ) / (cap["end"] - cap["start"]),
        "serve.workers.spawn_s": sum(
            s.end - s.start for s in spans if s.pid == pid and s.name == "serve.workers.spawn"),
        "serve.shm.publish_ms": sum(
            s.end - s.start for s in spans if s.pid == pid and s.name == "serve.shm.publish"
        ) * 1e3,
        "serve.workers.requeues": float(main["pool"]["requeues"]),
        "serve.workers.respawns": float(main["pool"]["respawns"]),
        "datasets.generate_s": _generate_s(spans, [pid]),
    })
    main_tid = _main_thread(spans, pid)
    setup = covered(
        [(s.start, s.end) for s in spans if s.pid == pid and s.tid == main_tid],
        main["t0"], main["ready"],
    )
    batcher_tids = {s.tid for s in batches}
    phase = covered(
        [(s.start, s.end) for s in spans if s.pid == pid and s.tid in batcher_tids],
        cap["start"], cap["end"],
    )
    total = (main["ready"] - main["t0"]) + (cap["end"] - cap["start"])
    metrics["unattributed_s"] = total - setup - phase
    return metrics


def covered_sum(intervals, lo: float, hi: float) -> float:
    """Summed (not merged) length of ``intervals`` clipped to ``[lo, hi]``."""
    return sum(max(0.0, min(e, hi) - max(s, lo)) for s, e in intervals)


def report_layers(raw_spans, passes: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metrics of a traced cold + warm report pass pair."""
    spans = [S(*s) for s in raw_spans]
    metrics = _zeros()
    metrics.update(_common(spans, spans))
    metrics.update(_counters(list(passes.values())))
    metrics["datasets.generate_s"] = _generate_s(spans, [p["pid"] for p in passes.values()])
    unattributed = 0.0
    for which, summary in passes.items():
        pid = summary["pid"]
        for s in spans:
            if s.pid == pid and s.name == "analysis.experiment":
                metrics[f"analysis.{s.key}.{which}_s"] = s.end - s.start
        tid = _main_thread(spans, pid)
        attributed = covered(
            [(s.start, s.end) for s in spans if s.pid == pid and s.tid == tid],
            summary["t0"], summary["end"],
        )
        unattributed += (summary["end"] - summary["t0"]) - attributed
    metrics["unattributed_s"] = unattributed
    return metrics


def self_time_rows(raw_spans) -> List[tuple]:
    """``(layer, calls, total_s, self_s)`` sorted by self time."""
    table = layer_table([tuple(s) for s in raw_spans])
    return sorted(
        ((name, row["calls"], row["total_s"], row["self_s"]) for name, row in table.items()),
        key=lambda row: -row[3],
    )
