"""ServingMetrics snapshots, latency summaries, stats IO and rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.metrics import (
    ServingMetrics,
    dump_stats,
    latency_summary_ms,
    load_stats,
    render_stats,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestSnapshot:
    def test_counters_and_occupancy(self):
        clock = FakeClock()
        metrics = ServingMetrics(max_batch=4, clock=clock)
        for depth in (0, 1, 2, 3):
            metrics.record_submit(depth)
        clock.now = 102.0
        metrics.record_batch([0.010, 0.012, 0.008])  # one batch of 3
        metrics.record_batch([0.005])  # one batch of 1
        metrics.record_shed()
        metrics.record_failed(2)
        snap = metrics.snapshot()
        assert snap["submitted"] == 4
        assert snap["completed"] == 4
        assert snap["shed"] == 1
        assert snap["failed"] == 2
        assert snap["batches"] == 2
        assert snap["batch_size_histogram"] == {"1": 1, "3": 1}
        assert snap["mean_batch_size"] == 2.0
        # 4 requests over 2 batches of capacity 4 -> 4 / 8
        assert snap["batch_occupancy"] == 0.5
        assert snap["queue_depth_peak"] == 3
        assert snap["queue_depth_mean"] == 1.5
        assert snap["window_seconds"] == pytest.approx(2.0)
        assert snap["requests_per_second"] == pytest.approx(2.0)
        assert snap["latency_ms"]["count"] == 4
        assert snap["latency_ms"]["max"] == pytest.approx(12.0)

    def test_reset_clears_everything(self):
        metrics = ServingMetrics(max_batch=2)
        metrics.record_submit(0)
        metrics.record_batch([0.001])
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["submitted"] == 0
        assert snap["completed"] == 0
        assert snap["latency_ms"] == {"count": 0}
        assert snap["requests_per_second"] == 0.0

    def test_snapshot_is_json_serializable(self):
        import json

        metrics = ServingMetrics(max_batch=2)
        metrics.record_submit(0)
        metrics.record_batch([0.002, 0.003])
        json.dumps(metrics.snapshot())


class TestLatencySummary:
    def test_empty_sample(self):
        assert latency_summary_ms(np.array([])) == {"count": 0}

    def test_percentiles_in_milliseconds(self):
        sample = np.linspace(0.001, 0.1, 100)  # 1ms .. 100ms
        summary = latency_summary_ms(sample)
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5, abs=1.0)
        assert summary["p99"] == pytest.approx(99.0, abs=1.5)
        assert summary["max"] == pytest.approx(100.0)
        assert summary["mean"] == pytest.approx(50.5, abs=0.5)


class TestStatsIO:
    def test_dump_load_round_trip(self, tmp_path):
        payload = {"models": {"snnwt": {"model": "snnwt", "completed": 7}}}
        path = tmp_path / "stats.json"
        dump_stats(payload, path)
        assert load_stats(path) == payload

    def test_render_loadtest_payload(self):
        metrics = ServingMetrics(max_batch=16)
        metrics.record_submit(0)
        metrics.record_batch([0.004])
        payload = {
            "loadtest": {"mode": "closed", "duration_seconds": 5.0, "concurrency": 8},
            "models": {"snnwt": {"model": "snnwt", **metrics.snapshot()}},
        }
        text = render_stats(payload)
        assert "loadtest: mode=closed" in text
        assert "model snnwt (max_batch=16):" in text
        assert "requests:" in text and "latency:" in text

    def test_render_single_snapshot(self):
        metrics = ServingMetrics(max_batch=4)
        metrics.record_submit(0)
        metrics.record_batch([0.002])
        text = render_stats({"model": "mlp", **metrics.snapshot()})
        assert "model mlp" in text

    def test_render_unknown_shape_falls_back_to_json(self):
        text = render_stats({"something": "else"})
        assert '"something"' in text


class TestReliabilityCounters:
    def test_deadline_and_breaker_counters_snapshot(self):
        metrics = ServingMetrics(max_batch=4)
        metrics.record_deadline_shed()
        metrics.record_deadline_shed(2)
        metrics.record_breaker_rejection()
        snapshot = metrics.snapshot()
        assert snapshot["deadline_shed"] == 3
        assert snapshot["breaker_rejections"] == 1
        metrics.reset()
        snapshot = metrics.snapshot()
        assert snapshot["deadline_shed"] == 0
        assert snapshot["breaker_rejections"] == 0


class TestRenderReliability:
    def _payload(self):
        return {
            "loadtest": {"mode": "chaos", "dataset": "digits"},
            "models": {
                "mlp": {
                    "model": "mlp",
                    "submitted": 10,
                    "completed": 8,
                    "deadline_shed": 2,
                    "breaker_rejections": 1,
                    "breaker": {"state": "open", "trips": 1, "rejections": 1},
                }
            },
            "pool": {
                "alive_shards": [0, 1],
                "jobs": 2,
                "respawns": 1,
                "wedge_kills": 1,
                "requeues": 3,
                "duplicate_completions": 1,
                "quarantined": 1,
                "quarantine_rejections": 2,
                "deadline_shed": 1,
                "peak_in_flight": 2,
                "supervisor": {
                    "respawns": 1,
                    "crash_loop_trips": 0,
                    "slots": {"0": {"breaker": "closed", "respawns": 1}},
                },
            },
            "chaos": {
                "scenario": "smoke",
                "seed": 0,
                "outcomes": {"ok": 8, "DeadlineExceeded": 2},
                "lost": 0,
                "duplicates": 0,
                "bit_mismatches": 0,
            },
        }

    def test_render_stats_shows_every_reliability_section(self):
        text = render_stats(self._payload())
        assert "reliability: 2 deadline shed, 1 breaker rejections" in text
        assert "breaker:   state open, 1 trip(s), 1 rejection(s)" in text
        assert "2 alive of 2" in text
        assert "3 requeued" in text
        assert "peak 2 in flight" in text
        assert "supervisor: 1 respawn(s), 0 crash-loop trip(s)" in text
        assert "scenario:  smoke (seed 0)" in text
        assert "DeadlineExceeded=2" in text
        assert "lost 0, duplicates 0, bit mismatches 0" in text


class TestRenderHealth:
    def _health(self, ready=True, state="closed"):
        return {
            "ready": ready,
            "live": True,
            "models": {
                "mlp": {
                    "breaker": {"state": state, "trips": 0},
                    "queue_depth": 0,
                }
            },
            "pool": {"alive_shards": [0, 1], "jobs": 2},
        }

    def test_ready_payload_renders(self):
        from repro.serve.metrics import render_health

        text = render_health(self._health())
        assert "ready: yes" in text
        assert "model mlp: breaker closed (0 trip(s))" in text
        assert "pool: 2 of 2 shard(s) alive" in text

    def test_not_ready_is_loud(self):
        from repro.serve.metrics import render_health

        text = render_health(self._health(ready=False, state="open"))
        assert "ready: NO" in text
        assert "breaker open" in text

    def test_accepts_wrapped_stats_payload(self):
        from repro.serve.metrics import render_health

        text = render_health({"health": self._health()})
        assert "ready: yes" in text

    def test_unknown_shape_falls_back_to_json(self):
        from repro.serve.metrics import render_health

        text = render_health({"something": "else"})
        assert '"something"' in text
