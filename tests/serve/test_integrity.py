"""SDC defense: scrubber recovery, audit lane, unrecoverable refusal.

Process-level tests drive the whole detect->restore->roll sequence
against small real pools (chaos hooks on, seeded bit flips via
``chaos_corrupt``); the audit lane is exercised both through the
engine (seeded coin flips) and through the pool's oracle APIs
directly.  One seeded end-to-end run of the ``weight-corruption``
chaos scenario asserts the full corruption invariant set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import IntegrityError, ServingError
from repro.serve.chaos import chaos_passed, run_chaos
from repro.serve.engine import BatchPolicy, InferenceServer
from repro.serve.metrics import render_stats
from repro.serve.supervisor import SupervisorPolicy
from repro.serve.workers import ShardedPool
from tests.serve.test_supervisor import FAST, wait_until

#: Stable keys every integrity_stats() payload must carry.
INTEGRITY_KEYS = {
    "scrub_passes",
    "scrub_failures",
    "corrupt_arrays_detected",
    "restores",
    "corrupt_shard_respawns",
    "stale_results_discarded",
    "sentinel_trips",
    "audit_mismatch_reports",
    "scrub_period",
    "audit_quarantined_pairs",
    "last_corruption",
    "unrecoverable",
}


def _pool(trained_mlp, test_set, **kwargs):
    defaults = dict(
        jobs=1,
        images=test_set.images,
        warm=False,
        chaos_hooks=True,
        supervisor=SupervisorPolicy(wedge_timeout=None, **FAST),
    )
    defaults.update(kwargs)
    return ShardedPool({"mlp": trained_mlp}, **defaults)


class TestScrubRecovery:
    def test_clean_scrub_counts_a_pass(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            assert pool.scrub_now() == []
            stats = pool.integrity_stats()
            assert stats["scrub_passes"] == 1
            assert stats["scrub_failures"] == 0
            assert stats["last_corruption"] is None
            assert stats["unrecoverable"] is False
            assert set(stats) == INTEGRITY_KEYS

    def test_corruption_is_detected_restored_and_rolled(
        self, trained_mlp, digits_small
    ):
        """Seeded flips -> scrub detects the exact array, restores it
        bit-identically from the pristine snapshot, and rolls the shard
        onto a fresh attach-verified worker that still serves the
        reference answers."""
        _, test_set = digits_small
        reference = trained_mlp.predict_images(test_set.images)
        with _pool(trained_mlp, test_set) as pool:
            info = pool.chaos_corrupt(seed=3, n_flips=4)
            assert info["n_flips"] == 4
            corrupt = pool.scrub_now()
            assert corrupt == [info["key"]]
            stats = pool.integrity_stats()
            assert stats["scrub_failures"] == 1
            assert stats["corrupt_arrays_detected"] == 1
            assert stats["restores"] == 1
            assert stats["last_corruption"]["arrays"] == [info["key"]]
            assert stats["last_corruption"]["recovered_at"] is not None
            assert stats["unrecoverable"] is False
            # Restored segment re-verifies clean...
            assert pool.scrub_now() == []
            # ...the slot was rolled onto a fresh worker...
            assert wait_until(
                lambda: pool.integrity_stats()["corrupt_shard_respawns"] >= 1
            )
            assert wait_until(lambda: pool.alive_shards() == [0])
            # ...and serving is bit-identical to the direct oracle.
            got = pool.run_batch("mlp", [0, 3, 9], None)
            np.testing.assert_array_equal(got, reference[[0, 3, 9]])

    def test_background_scrubber_detects_without_being_asked(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, scrub_period=0.1) as pool:
            assert pool.scrub_period == 0.1
            pool.chaos_corrupt(seed=11, n_flips=2)
            assert wait_until(
                lambda: pool.integrity_stats()["scrub_failures"] >= 1
            )
            assert wait_until(
                lambda: pool.integrity_stats()["restores"] >= 1
            )
            assert pool._bundle.verify() == []

    def test_supervisor_counts_corrupt_heals(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set) as pool:
            pool.chaos_corrupt(seed=5, n_flips=2)
            pool.scrub_now()
            assert wait_until(
                lambda: pool.supervisor.snapshot()["corrupt_heals"] >= 1
            )
            # A corruption roll rides the planned-retire path: no
            # crash-loop pressure on the slot's breaker.
            snapshot = pool.supervisor.snapshot()
            assert snapshot["slots"]["0"]["breaker"] == "closed"
            assert snapshot["crash_loop_trips"] == 0


class TestUnrecoverable:
    def test_pool_refuses_when_no_verified_source_remains(
        self, trained_mlp, digits_small, monkeypatch
    ):
        """Corrupt the live segment AND poison every restore source:
        the pool must refuse with IntegrityError rather than serve
        unverifiable bytes."""
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            info = pool.chaos_corrupt(seed=7, n_flips=2)
            # Make the verified snapshot unable to cover the array.
            monkeypatch.setattr(pool, "_verified_snapshot", lambda: {})
            with pytest.raises(IntegrityError, match="no verified snapshot"):
                pool.scrub_now()
            stats = pool.integrity_stats()
            assert stats["unrecoverable"] is True
            assert stats["last_corruption"]["arrays"] == [info["key"]]
            assert stats["last_corruption"]["recovered_at"] is None
            with pytest.raises(IntegrityError, match="refusing to serve"):
                pool.run_batch("mlp", [0], None)


class TestChaosCorruptHook:
    def test_requires_chaos_hooks(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(
            trained_mlp, test_set, chaos_hooks=False, supervisor=None
        ) as pool:
            with pytest.raises(ServingError, match="chaos_hooks"):
                pool.chaos_corrupt()

    def test_unknown_key_raises(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            with pytest.raises(ServingError, match="unknown shared array"):
                pool.chaos_corrupt(key="mlp/no_such_array")

    def test_never_picks_the_dataset_table(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            info = pool.chaos_corrupt(seed=0, n_flips=1)
            assert info["key"] != "__dataset__"
            assert info["key"].startswith("mlp/")


class TestPoolAuditOracle:
    def test_oracle_matches_served_answers(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            indices = [0, 1, 2, 5]
            served = pool.run_batch("mlp", indices, None)
            oracle = pool.audit_oracle("mlp")
            rows = pool.audit_rows(indices)
            np.testing.assert_array_equal(oracle.run(indices, rows), served)
            # Cached per published bundle: same runner object back.
            assert pool.audit_oracle("mlp") is oracle

    def test_unknown_model_raises(self, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            with pytest.raises(ServingError, match="unknown model"):
                pool.audit_oracle("resnet")

    def test_audit_rows_needs_a_published_dataset(self, trained_mlp):
        with ShardedPool(
            {"mlp": trained_mlp}, jobs=1, warm=False, chaos_hooks=True
        ) as pool:
            with pytest.raises(ServingError, match="no shared dataset"):
                pool.audit_rows([0])

    def test_reported_mismatch_quarantines_the_pair(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set) as pool:
            pool.report_audit_mismatch(0, "mlp")
            stats = pool.integrity_stats()
            assert stats["audit_mismatch_reports"] == 1
            assert [0, "mlp"] in stats["audit_quarantined_pairs"]
            rendered = render_stats(
                {"model": "mlp", "completed": 0, "integrity": stats}
            )
            assert "quarantined (shard:model):  0:mlp" in rendered
            # Escalation scrubbed the (clean) segment and retired the
            # offending shard onto a fresh worker.
            assert stats["scrub_passes"] >= 1
            assert wait_until(
                lambda: pool.integrity_stats()["corrupt_shard_respawns"] >= 1
            )
            assert wait_until(lambda: pool.alive_shards() == [0])


class TestOracleRunsSerial:
    """Both audit oracles re-execute on the serial interpreter only."""

    @staticmethod
    def _forbid_tiled_executor(monkeypatch):
        from repro.ir.backends.numpy_tiled import NumpyTiledBackend

        def refuse(*args, **kwargs):
            raise AssertionError("the audit oracle entered the tiled executor")

        monkeypatch.setattr(NumpyTiledBackend, "run", refuse)

    def test_pool_oracle(self, monkeypatch, trained_mlp, digits_small):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            indices = [0, 1, 2]
            served = pool.run_batch("mlp", indices, None)
            oracle = pool.audit_oracle("mlp")
            self._forbid_tiled_executor(monkeypatch)
            rows = pool.audit_rows(indices)
            np.testing.assert_array_equal(oracle.run(indices, rows), served)

    def test_in_process_oracle(self, monkeypatch, trained_mlp, digits_small):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        with InferenceServer.from_models(
            {"mlp": trained_mlp}, images=images
        ) as server:
            oracle = server._oracle_for("mlp")
            self._forbid_tiled_executor(monkeypatch)
            np.testing.assert_array_equal(
                oracle.run([0, 1, 2], images[:3]),
                trained_mlp.predict_images(images[:3]),
            )


class TestEngineAuditLane:
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_invalid_audit_rate_raises(self, rate):
        with pytest.raises(ServingError, match="audit_rate"):
            InferenceServer(runners={"x": object()}, audit_rate=rate)

    def test_rate_zero_is_draw_free(self, trained_mlp, digits_small):
        _, test_set = digits_small
        instance = InferenceServer.from_models(
            {"mlp": trained_mlp}, images=test_set.images, audit_rate=0.0
        )
        try:
            assert instance._audit_rng is None
            instance.predict_many("mlp", indices=[0, 1, 2])
            integrity = instance.integrity()
            assert integrity["audit_rate"] == 0.0
            assert integrity["audit_checks"] == 0
        finally:
            instance.close()

    def test_full_rate_audits_every_batch_and_matches(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            instance = InferenceServer(
                pool=pool,
                policy=BatchPolicy(max_batch=4, max_wait_us=1000.0),
                audit_rate=1.0,
                audit_seed=7,
            )
            try:
                labels = instance.predict_many("mlp", indices=list(range(12)))
                reference = trained_mlp.predict_images(test_set.images[:12])
                np.testing.assert_array_equal(labels, reference)
                integrity = instance.integrity()
                assert integrity["audit_checks"] > 0
                assert integrity["audit_matches"] == integrity["audit_checks"]
                assert integrity["audit_mismatches"] == 0
                # Pool counters are merged into the same payload.
                assert integrity["scrub_failures"] == 0
                assert integrity["unrecoverable"] is False
            finally:
                instance.close()

    def test_stats_and_health_carry_the_integrity_section(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small
        with _pool(trained_mlp, test_set, supervisor=None) as pool:
            instance = InferenceServer(
                pool=pool,
                policy=BatchPolicy(max_batch=4, max_wait_us=1000.0),
                audit_rate=0.5,
                audit_seed=0,
            )
            try:
                instance.predict_many("mlp", indices=[0, 1, 2, 3])
                stats = instance.stats()["integrity"]
                health = instance.health()
                for payload in (stats, health["integrity"]):
                    assert INTEGRITY_KEYS <= set(payload)
                    assert {
                        "audit_rate",
                        "audit_checks",
                        "audit_matches",
                        "audit_mismatches",
                        "audit_skipped",
                    } <= set(payload)
                assert health["ready"] is True
            finally:
                instance.close()

    def test_seeded_coin_flips_are_deterministic(
        self, trained_mlp, digits_small
    ):
        _, test_set = digits_small

        def pattern():
            instance = InferenceServer.from_models(
                {"mlp": trained_mlp},
                images=test_set.images,
                audit_rate=0.5,
                audit_seed=42,
            )
            try:
                return [instance._should_audit() for _ in range(32)]
            finally:
                instance.close()

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)


class TestEndToEndWeightCorruption:
    def test_scenario_holds_every_corruption_invariant(self):
        """A short seeded run: the bit flips land mid-load, the
        scrubber detects inside one period, the segment is restored
        bit-identically, and nothing corrupt is served afterwards."""
        payload = run_chaos(
            "weight-corruption",
            models=("mlp",),
            seed=0,
            duration_seconds=2.5,
            concurrency=2,
        )
        chaos = payload["chaos"]
        assert chaos["scenario"] == "weight-corruption"
        invariants = chaos["invariants"]
        assert invariants["corruption_detected"] is True
        assert invariants["detected_within_scrub_period"] is True
        assert invariants["no_corrupt_responses_after_detection"] is True
        assert invariants["restored_bit_identical"] is True
        assert chaos_passed(payload)
        # The corruption actually fired and was repaired.
        kinds = [event["kind"] for event in chaos["events"]]
        assert "corrupt_weights" in kinds
        integrity = payload["integrity"]
        assert integrity["scrub_failures"] >= 1
        assert integrity["restores"] >= 1
        assert integrity["unrecoverable"] is False
        assert payload["health"]["ready"] is True


class TestServingSnapshotBound:
    def test_hot_swaps_leave_only_the_newest_snapshot(
        self, digits_small, tmp_path, monkeypatch
    ):
        """Each hot swap stores a snapshot; the cache bound evicts the rest."""
        from repro.core.config import MLPConfig
        from repro.mlp.network import MLP

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "200000")
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        _, test_set = digits_small

        def mlp(seed):
            return MLP(MLPConfig(n_hidden=20, seed=seed).validate())

        with ShardedPool(
            {"mlp": mlp(0)},
            jobs=1,
            images=test_set.images[:50],
            warm=False,
            supervisor=SupervisorPolicy(wedge_timeout=None, **FAST),
        ) as pool:
            for seed in range(1, 7):
                pool.hot_swap({"mlp": mlp(seed)})
            snapshots = sorted((tmp_path / "serving").glob("*.npz"))
            assert [path.stem for path in snapshots] == [pool._snapshot_key]
            assert pool.scrub_now() == []
