"""Serving metrics: queue depth, batch sizes, latency percentiles.

One :class:`ServingMetrics` instance per served model accumulates,
under a single lock, everything the closed-loop load harness and the
``repro serve-stats`` view report:

* request counters — submitted / completed / shed (admission control)
  / failed (runner exception);
* queue depth at submission time (mean and peak);
* a batch-size histogram and the derived *occupancy* (mean coalesced
  batch size over ``max_batch`` — how full the dynamic batches run);
* request latency (enqueue -> result routed), recorded per request
  and summarized as p50 / p95 / p99 / mean / max in milliseconds;
* achieved requests/second over the observation window (first
  submission to last completion).

Wall-clock sourcing matches :mod:`repro.core.timing`
(``time.perf_counter``), so serving phase totals and request
latencies are directly comparable in one report.

Latencies are kept exactly (a float per completed request).  At the
load-harness scale — tens of thousands of requests per run — that is
a few hundred kilobytes, and exact percentiles beat a quantized
histogram for the tail assertions CI makes.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Percentiles reported for request latency, in order.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


class ServingMetrics:
    """Thread-safe accumulator for one served model's statistics."""

    def __init__(self, max_batch: int = 1, clock=time.perf_counter):
        self.max_batch = int(max_batch)
        self._clock = clock
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.submitted = 0
            self.completed = 0
            self.shed = 0
            self.failed = 0
            self.deadline_shed = 0
            self.breaker_rejections = 0
            self.queue_depth_peak = 0
            self._queue_depth_sum = 0
            self.batch_histogram: Dict[int, int] = {}
            self._latencies: List[float] = []
            self._first_submit: Optional[float] = None
            self._last_complete: Optional[float] = None

    # -- recording hooks (called by the batcher) ------------------------

    def record_submit(self, queue_depth: int) -> None:
        """One request admitted with ``queue_depth`` requests ahead."""
        now = self._clock()
        with self._lock:
            self.submitted += 1
            self._queue_depth_sum += queue_depth
            if queue_depth > self.queue_depth_peak:
                self.queue_depth_peak = queue_depth
            if self._first_submit is None:
                self._first_submit = now

    def record_shed(self) -> None:
        """One request rejected by admission control."""
        with self._lock:
            self.shed += 1

    def record_deadline_shed(self, count: int = 1) -> None:
        """``count`` requests shed because their deadline expired."""
        with self._lock:
            self.deadline_shed += int(count)

    def record_breaker_rejection(self) -> None:
        """One request rejected by an open circuit breaker."""
        with self._lock:
            self.breaker_rejections += 1

    def record_batch(self, latencies_seconds: Sequence[float]) -> None:
        """One coalesced batch completed; per-request latencies in s."""
        size = len(latencies_seconds)
        now = self._clock()
        with self._lock:
            self.completed += size
            self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
            self._latencies.extend(float(v) for v in latencies_seconds)
            self._last_complete = now

    def record_failed(self, count: int) -> None:
        """``count`` requests failed inside the model runner."""
        with self._lock:
            self.failed += int(count)

    # -- summaries ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable summary of everything recorded so far."""
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            histogram = dict(sorted(self.batch_histogram.items()))
            batches = sum(histogram.values())
            occupancy = (
                self.completed / (batches * self.max_batch) if batches else 0.0
            )
            window = None
            if self._first_submit is not None and self._last_complete is not None:
                window = max(self._last_complete - self._first_submit, 1e-9)
            summary: Dict[str, Any] = {
                "max_batch": self.max_batch,
                "submitted": self.submitted,
                "completed": self.completed,
                "shed": self.shed,
                "failed": self.failed,
                "deadline_shed": self.deadline_shed,
                "breaker_rejections": self.breaker_rejections,
                "batches": batches,
                "batch_size_histogram": {str(k): v for k, v in histogram.items()},
                "mean_batch_size": round(self.completed / batches, 3) if batches else 0.0,
                "batch_occupancy": round(occupancy, 4),
                "queue_depth_peak": self.queue_depth_peak,
                "queue_depth_mean": (
                    round(self._queue_depth_sum / self.submitted, 3)
                    if self.submitted
                    else 0.0
                ),
                "window_seconds": round(window, 6) if window else 0.0,
                "requests_per_second": (
                    round(self.completed / window, 2) if window else 0.0
                ),
            }
        summary["latency_ms"] = latency_summary_ms(latencies)
        return summary

    def latencies_seconds(self) -> np.ndarray:
        with self._lock:
            return np.asarray(self._latencies, dtype=np.float64)


def latency_summary_ms(latencies_seconds: np.ndarray) -> Dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample, in milliseconds."""
    sample = np.asarray(latencies_seconds, dtype=np.float64)
    if sample.size == 0:
        return {"count": 0}
    ms = sample * 1e3
    summary: Dict[str, float] = {"count": int(ms.size)}
    for pct in LATENCY_PERCENTILES:
        summary[f"p{pct:g}"] = round(float(np.percentile(ms, pct)), 3)
    summary["mean"] = round(float(ms.mean()), 3)
    summary["max"] = round(float(ms.max()), 3)
    return summary


def dump_stats(payload: Dict[str, Any], path) -> None:
    """Write a stats payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_stats(path) -> Dict[str, Any]:
    """Read a stats payload written by :func:`dump_stats`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def render_stats(payload: Dict[str, Any]) -> str:
    """ASCII rendering of a stats payload (``repro serve-stats``).

    Accepts either one model summary (a :meth:`ServingMetrics.snapshot`
    dict) or a loadtest payload with a ``"models"`` mapping; unknown
    shapes fall back to pretty-printed JSON so the view never fails on
    older files.
    """
    models = payload.get("models")
    if models is None and "completed" in payload:
        models = {payload.get("model", "model"): payload}
    if not isinstance(models, dict) or not models:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines: List[str] = []
    header = payload.get("loadtest")
    if isinstance(header, dict):
        described = ", ".join(
            f"{key}={header[key]}"
            for key in ("mode", "duration_seconds", "concurrency", "offered_rps")
            if key in header
        )
        lines.append(f"loadtest: {described}")
    for name, stats in sorted(models.items()):
        latency = stats.get("latency_ms", {})
        lines.append(f"model {name} (max_batch={stats.get('max_batch', '?')}):")
        lines.append(
            "  requests:  "
            f"{stats.get('completed', 0)} completed, "
            f"{stats.get('shed', 0)} shed, "
            f"{stats.get('failed', 0)} failed "
            f"({stats.get('requests_per_second', 0.0)} req/s)"
        )
        if stats.get("deadline_shed") or stats.get("breaker_rejections"):
            lines.append(
                "  reliability: "
                f"{stats.get('deadline_shed', 0)} deadline shed, "
                f"{stats.get('breaker_rejections', 0)} breaker rejections"
            )
        breaker = stats.get("breaker")
        if isinstance(breaker, dict):
            lines.append(
                "  breaker:   "
                f"state {breaker.get('state', '?')}, "
                f"{breaker.get('trips', 0)} trip(s), "
                f"{breaker.get('rejections', 0)} rejection(s)"
            )
        lines.append(
            "  batching:  "
            f"{stats.get('batches', 0)} batches, "
            f"mean size {stats.get('mean_batch_size', 0.0)}, "
            f"occupancy {stats.get('batch_occupancy', 0.0)}"
        )
        lines.append(
            "  queue:     "
            f"depth mean {stats.get('queue_depth_mean', 0.0)}, "
            f"peak {stats.get('queue_depth_peak', 0)}"
        )
        if latency.get("count"):
            lines.append(
                "  latency:   "
                + ", ".join(
                    f"{key} {latency[key]}ms"
                    for key in ("p50", "p95", "p99", "mean", "max")
                    if key in latency
                )
            )
        histogram = stats.get("batch_size_histogram", {})
        if histogram:
            rendered = "  ".join(
                f"{size}:{count}" for size, count in sorted(
                    histogram.items(), key=lambda kv: int(kv[0])
                )
            )
            lines.append(f"  batch hist (size:count):  {rendered}")
    plan_cache = payload.get("plan_cache")
    if isinstance(plan_cache, dict):
        lines.append("plan cache:")
        lines.append(
            "  plans:     "
            f"{plan_cache.get('plan_hits', 0)} hit(s), "
            f"{plan_cache.get('plan_misses', 0)} miss(es), "
            f"{plan_cache.get('plan_compiles', 0)} compile(s)"
        )
        lines.append(
            "  trains:    "
            f"{plan_cache.get('trains_hits', 0)} hit(s), "
            f"{plan_cache.get('trains_misses', 0)} miss(es)"
        )
    pool = payload.get("pool")
    if isinstance(pool, dict):
        lines.append("pool:")
        lines.append(
            "  shards:    "
            f"{len(pool.get('alive_shards', []))} alive of "
            f"{pool.get('jobs', '?')}  "
            f"(respawns {pool.get('respawns', 0)}, "
            f"wedge kills {pool.get('wedge_kills', 0)})"
        )
        spawn = pool.get("spawn_ready_seconds")
        if isinstance(spawn, dict) and spawn.get("count"):
            lines.append(
                "  spawn:     "
                f"{spawn.get('count', 0)} come-up(s), "
                f"mean {round(spawn.get('mean', 0.0) * 1e3, 1)}ms, "
                f"max {round(spawn.get('max', 0.0) * 1e3, 1)}ms"
            )
        lines.append(
            "  tasks:     "
            f"{pool.get('requeues', 0)} requeued, "
            f"{pool.get('duplicate_completions', 0)} duplicate completions "
            f"(no-ops), {pool.get('quarantined', 0)} quarantined, "
            f"{pool.get('quarantine_rejections', 0)} quarantine rejections, "
            f"{pool.get('deadline_shed', 0)} deadline shed, "
            f"peak {pool.get('peak_in_flight', 0)} in flight"
        )
        supervisor = pool.get("supervisor")
        if isinstance(supervisor, dict):
            slots = supervisor.get("slots", {})
            described = "  ".join(
                f"{slot}:{info.get('breaker', '?')}"
                f"({info.get('respawns', 0)})"
                for slot, info in sorted(slots.items())
            )
            lines.append(
                "  supervisor: "
                f"{supervisor.get('respawns', 0)} respawn(s), "
                f"{supervisor.get('crash_loop_trips', 0)} crash-loop trip(s)"
                + (f"  slots {described}" if described else "")
            )
    learner = payload.get("learner")
    if isinstance(learner, dict):
        lines.append("learner:")
        lines.append(
            "  epochs:    "
            f"serving {learner.get('serving_epoch', '?')} "
            f"(latest {learner.get('epoch', '?')}, "
            f"last good {learner.get('last_good_epoch', '?')}), "
            f"staleness {learner.get('staleness', 0)} window(s)"
        )
        lines.append(
            "  windows:   "
            f"{learner.get('windows', 0)} run, "
            f"{learner.get('promotions', 0)} promoted, "
            f"{learner.get('rejections', 0)} gate-rejected, "
            f"{learner.get('rollbacks', 0)} rolled back "
            f"({learner.get('hot_swaps', 0)} hot-swap(s))"
        )
        slo = learner.get("slo", {})
        lines.append(
            "  slo:       "
            f"gate retention {slo.get('gate_retention', '?')}, "
            f"rollback retention {slo.get('rollback_retention', '?')}, "
            f"probe accuracy {learner.get('probe_accuracy', '?')}"
        )
        rollback = learner.get("last_rollback")
        if isinstance(rollback, dict):
            lines.append(
                "  rollback:  "
                f"epoch {rollback.get('from_epoch', '?')} -> "
                f"{rollback.get('to_epoch', '?')} "
                f"(breach {rollback.get('breach_accuracy', '?')}, "
                f"restored {rollback.get('restored_accuracy', '?')}, "
                f"baseline restored: "
                f"{'yes' if rollback.get('baseline_restored') else 'NO'})"
            )
    integrity = payload.get("integrity")
    if isinstance(integrity, dict):
        lines.append("integrity:")
        lines.append(
            "  audit:     "
            f"rate {integrity.get('audit_rate', 0.0)}, "
            f"{integrity.get('audit_checks', 0)} check(s), "
            f"{integrity.get('audit_matches', 0)} match(es), "
            f"{integrity.get('audit_mismatches', 0)} mismatch(es), "
            f"{integrity.get('audit_skipped', 0)} skipped"
        )
        lines.append(
            "  scrub:     "
            f"period {integrity.get('scrub_period', None)}, "
            f"{integrity.get('scrub_passes', 0)} clean pass(es), "
            f"{integrity.get('scrub_failures', 0)} corruption(s) "
            f"({integrity.get('corrupt_arrays_detected', 0)} array(s), "
            f"{integrity.get('restores', 0)} restore(s))"
        )
        lines.append(
            "  defense:   "
            f"{integrity.get('corrupt_shard_respawns', 0)} corrupt-shard "
            f"respawn(s), {integrity.get('stale_results_discarded', 0)} stale "
            f"result(s) discarded, {integrity.get('sentinel_trips', 0)} "
            f"sentinel trip(s)"
        )
        quarantined = integrity.get("audit_quarantined_pairs") or []
        if quarantined:
            described = "  ".join(f"{sid}:{model}" for sid, model in quarantined)
            lines.append(f"  quarantined (shard:model):  {described}")
        if integrity.get("unrecoverable"):
            lines.append("  UNRECOVERABLE: corruption restore failed")
    chaos = payload.get("chaos")
    if isinstance(chaos, dict):
        lines.append("chaos:")
        lines.append(
            f"  scenario:  {chaos.get('scenario', '?')} "
            f"(seed {chaos.get('seed', '?')})"
        )
        outcomes = chaos.get("outcomes", {})
        if outcomes:
            lines.append(
                "  outcomes:  "
                + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
            )
        lines.append(
            "  invariants: "
            f"lost {chaos.get('lost', '?')}, "
            f"duplicates {chaos.get('duplicates', '?')}, "
            f"bit mismatches {chaos.get('bit_mismatches', '?')}"
        )
    return "\n".join(lines)


def render_health(payload: Dict[str, Any]) -> str:
    """ASCII rendering of a health payload (``repro serve-health``).

    Accepts either a bare :meth:`InferenceServer.health` payload or a
    full loadtest stats payload carrying one under ``"health"``.
    """
    health = payload.get("health", payload)
    if not isinstance(health, dict) or "ready" not in health:
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [
        f"ready: {'yes' if health.get('ready') else 'NO'}",
        f"live:  {'yes' if health.get('live', True) else 'NO'}",
    ]
    for name, info in sorted(health.get("models", {}).items()):
        breaker = info.get("breaker", {})
        lines.append(
            f"model {name}: breaker {breaker.get('state', '?')} "
            f"({breaker.get('trips', 0)} trip(s)), "
            f"queue depth {info.get('queue_depth', 0)}"
        )
    pool = health.get("pool")
    if isinstance(pool, dict):
        lines.append(
            f"pool: {len(pool.get('alive_shards', []))} of "
            f"{pool.get('jobs', '?')} shard(s) alive"
        )
    integrity = health.get("integrity")
    if isinstance(integrity, dict):
        lines.append(
            f"integrity: audit {integrity.get('audit_checks', 0)} check(s) "
            f"({integrity.get('audit_mismatches', 0)} mismatch(es)), "
            f"scrub {integrity.get('scrub_passes', 0)} pass(es) "
            f"({integrity.get('scrub_failures', 0)} corruption(s)), "
            f"{'UNRECOVERABLE' if integrity.get('unrecoverable') else 'recoverable'}"
        )
    learner = health.get("learner")
    if isinstance(learner, dict):
        lines.append(
            f"learner: epoch {learner.get('serving_epoch', '?')} serving "
            f"(staleness {learner.get('staleness', 0)}, "
            f"rollbacks {learner.get('rollbacks', 0)}, "
            f"retention SLO "
            f"{'ok' if learner.get('retention_slo_ok', True) else 'BREACHED'})"
        )
    return "\n".join(lines)
