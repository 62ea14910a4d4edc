"""Live continual learning: stream, label state, snapshots, the loop.

Cheap unit tests cover the deterministic stream (drift / flip hooks),
the decayed win-count labeling state, snapshot versioning through the
content-addressed cache, and scenario validation.  The learner loop is
exercised against a real in-process server — one clean window and one
poisoned window that must trigger an automatic, bit-exact rollback —
plus a pool-backend hot-swap and a tiny seeded end-to-end run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.artifacts import ModelCache
from repro.core.errors import ServingError
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultConfig
from repro.serve.batcher import BatchPolicy
from repro.serve.chaos import (
    LEARNING_SCENARIOS,
    SCENARIOS,
    get_learning_scenario,
)
from repro.serve.engine import InferenceServer
from repro.serve.learner import (
    ContinualLearner,
    LabeledStream,
    LearnerSLO,
    LearningScenario,
    SnapshotStore,
    _LabelState,
    clone_network,
    run_learn_serve,
)
from repro.serve.workers import ShardedPool
from repro.snn.batched import leak_scan_kernel, predict_batch


# ---------------------------------------------------------------------------
# LabeledStream
# ---------------------------------------------------------------------------


class TestLabeledStream:
    def test_windows_are_deterministic(self, digits_small):
        train_set, _ = digits_small
        a = LabeledStream(train_set, window_size=12, seed=5)
        b = LabeledStream(train_set, window_size=12, seed=5)
        for _ in range(3):
            img_a, lab_a, idx_a = a.next_window()
            img_b, lab_b, idx_b = b.next_window()
            np.testing.assert_array_equal(img_a, img_b)
            np.testing.assert_array_equal(lab_a, lab_b)
            assert idx_a == idx_b

    def test_drift_perturbs_images_only(self, digits_small):
        train_set, _ = digits_small
        clean = LabeledStream(train_set, window_size=12, seed=5)
        drifted = LabeledStream(train_set, window_size=12, seed=5)
        drifted.drift_magnitude = 0.4
        img_c, lab_c, idx_c = clean.next_window()
        img_d, lab_d, idx_d = drifted.next_window()
        assert idx_c == idx_d, "fault toggles must not perturb the index stream"
        np.testing.assert_array_equal(lab_c, lab_d)
        assert not np.array_equal(img_c, img_d)
        high = max(float(np.max(train_set.images)), 1.0)
        assert float(np.min(img_d)) >= 0.0
        assert float(np.max(img_d)) <= high

    def test_flip_rotates_every_label(self, digits_small):
        train_set, _ = digits_small
        clean = LabeledStream(train_set, window_size=12, seed=5)
        flipped = LabeledStream(train_set, window_size=12, seed=5)
        flipped.flip_labels = True
        _, lab_c, _ = clean.next_window()
        _, lab_f, _ = flipped.next_window()
        np.testing.assert_array_equal(lab_f, (lab_c + 1) % clean.n_labels)

    def test_validation(self, digits_small):
        train_set, _ = digits_small
        with pytest.raises(ServingError):
            LabeledStream(train_set.take(0))
        with pytest.raises(ServingError):
            LabeledStream(train_set, window_size=0)


# ---------------------------------------------------------------------------
# SLO / scenario validation and registry
# ---------------------------------------------------------------------------


class TestSLOAndScenario:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gate_retention": 1.5},
            {"rollback_retention": -0.1},
            {"gate_tolerance": -0.01},
        ],
    )
    def test_bad_slo_raises(self, kwargs):
        with pytest.raises(ServingError):
            LearnerSLO(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"windows": 0},
            {"window_size": 1},
            {"shadow_fraction": 1.0},
            {"jobs": -1},
            {"concurrency": 0},
            {"drift_magnitude": 1.5},
            {"weight_ber": -0.1},
            {"windows": 4, "flip_windows": (4,)},
        ],
    )
    def test_bad_scenario_raises(self, kwargs):
        with pytest.raises(ServingError):
            LearningScenario(
                scenario_id="x", description="bad", **kwargs
            ).validate()

    def test_registry_is_valid_and_disjoint_from_serving_chaos(self):
        for sid, scenario in LEARNING_SCENARIOS.items():
            assert scenario.scenario_id == sid
            scenario.validate()
        assert not set(LEARNING_SCENARIOS) & set(SCENARIOS)

    def test_unknown_scenario_lists_known_ids(self):
        with pytest.raises(ServingError, match="drift-storm"):
            get_learning_scenario("nope")


# ---------------------------------------------------------------------------
# _LabelState
# ---------------------------------------------------------------------------


class TestLabelState:
    def test_from_labels_round_trips(self):
        labels = np.array([0, 2, 1, -1])
        state = _LabelState.from_labels(labels, n_labels=3)
        out = state.labels(prior=labels)
        np.testing.assert_array_equal(out, labels)

    def test_decay_lets_fresh_evidence_relabel(self):
        state = _LabelState.from_labels(np.array([0]), n_labels=2, decay=0.5)
        for _ in range(4):
            state.observe([0], [1])
        assert state.labels()[0] == 1

    def test_silent_neuron_keeps_prior(self):
        state = _LabelState(2, 3, decay=0.5)
        state.observe([0], [2])  # neuron 1 never wins
        out = state.labels(prior=np.array([1, 1]))
        assert out[0] == 2 and out[1] == 1
        np.testing.assert_array_equal(
            _LabelState(1, 3).labels(), np.array([-1])
        )

    def test_clone_is_independent(self):
        state = _LabelState.from_labels(np.array([0, 1]), n_labels=2)
        twin = state.clone()
        twin.observe([0, 1], [1, 0])
        np.testing.assert_array_equal(
            state.labels(), np.array([0, 1])
        )

    def test_bad_decay_raises(self):
        with pytest.raises(ServingError):
            _LabelState(1, 2, decay=1.5)


# ---------------------------------------------------------------------------
# clone_network / SnapshotStore
# ---------------------------------------------------------------------------


class TestCloneNetwork:
    def test_clone_predicts_identically_but_shares_nothing(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        twin = clone_network(trained_snn)
        np.testing.assert_array_equal(
            predict_batch(twin, test_set.images[:16], seed=3),
            predict_batch(trained_snn, test_set.images[:16], seed=3),
        )
        before = np.array(trained_snn.weights)
        twin.weights += 1.0
        twin.population.thresholds[:] += 1.0
        twin.neuron_labels[:] = 0
        np.testing.assert_array_equal(trained_snn.weights, before)
        assert not np.array_equal(
            np.asarray(trained_snn.thresholds), np.asarray(twin.thresholds)
        )


class TestSnapshotStore:
    @pytest.fixture()
    def store(self, tmp_path, trained_snn, digits_small):
        _, test_set = digits_small
        return SnapshotStore(
            ModelCache(tmp_path / "snaps"), "live", test_set.take(16)
        )

    def test_round_trip_is_bit_exact(self, store, trained_snn):
        store.save(0, trained_snn)
        restored = store.load(0)
        np.testing.assert_array_equal(restored.weights, trained_snn.weights)
        np.testing.assert_array_equal(
            np.asarray(restored.thresholds), np.asarray(trained_snn.thresholds)
        )
        np.testing.assert_array_equal(
            restored.neuron_labels, trained_snn.neuron_labels
        )

    def test_epochs_must_increase(self, store, trained_snn):
        store.save(1, trained_snn)
        with pytest.raises(ServingError, match="must increase"):
            store.save(1, trained_snn)
        with pytest.raises(ServingError, match="must increase"):
            store.save(0, trained_snn)
        store.save(2, trained_snn)
        assert store.epochs() == [1, 2]

    def test_unknown_epoch_raises(self, store):
        with pytest.raises(ServingError, match="no snapshot"):
            store.load(7)

    def test_corrupt_snapshot_is_evicted_not_served(self, store, trained_snn):
        key = store.save(0, trained_snn)
        path = store.cache.path_for(key)
        path.write_bytes(b"bit rot")
        before = store.cache.stats.corrupt_evictions
        with pytest.raises(ServingError, match="digest"):
            store.load(0)
        assert store.cache.stats.corrupt_evictions == before + 1
        assert not path.exists()


# ---------------------------------------------------------------------------
# ContinualLearner against a real in-process server
# ---------------------------------------------------------------------------


def _make_server(network, images, seed=0):
    return InferenceServer.from_models(
        {"live": clone_network(network)},
        policy=BatchPolicy(max_batch=8, max_wait_us=500.0),
        images=images,
        seed=seed,
    )


class TestContinualLearner:
    def test_requires_labeled_baseline(self, trained_snn, digits_small):
        train_set, test_set = digits_small
        unlabeled = clone_network(trained_snn)
        unlabeled.neuron_labels = None
        server = _make_server(trained_snn, test_set.images)
        try:
            with pytest.raises(ServingError, match="labeled baseline"):
                ContinualLearner(
                    server,
                    "live",
                    unlabeled,
                    LabeledStream(train_set, window_size=8),
                    test_set.take(8),
                )
        finally:
            server.close()

    def test_clean_window_promotes_or_rejects_coherently(
        self, trained_snn, digits_small, tmp_path
    ):
        train_set, test_set = digits_small
        server = _make_server(trained_snn, test_set.images)
        store = SnapshotStore(
            ModelCache(tmp_path / "snaps"), "live", test_set.take(16)
        )
        try:
            learner = ContinualLearner(
                server,
                "live",
                trained_snn,
                LabeledStream(train_set, window_size=16, seed=0),
                test_set.take(16),
                slo=LearnerSLO(gate_retention=0.0, rollback_retention=0.0),
                store=store,
                seed=0,
            )
            record = learner.run_window()
            # gate_retention 0 always promotes; rollback_retention 0
            # never rolls back — the window must land as promoted.
            assert record["outcome"] == "promoted"
            assert record["shadow"]["n"] >= 1
            assert learner.epoch == learner.serving_epoch == 1
            assert learner.staleness == 0
            assert store.epochs() == [0, 1]
            # Serving really swapped: served answers equal direct
            # predictions of the promoted network.
            indices = list(range(8))
            served = server.predict_many("live", indices=indices)
            expected = predict_batch(
                learner._last_good_network,
                np.asarray(test_set.images),
                indices=indices,
                seed=0,
            )
            np.testing.assert_array_equal(served, expected)
            state = learner.state()
            assert state["promotions"] == 1 and state["rollbacks"] == 0
            assert state["snapshots"]["epochs"] == [0, 1]
            assert learner.health()["retention_slo_ok"] is True
        finally:
            server.close()

    @pytest.mark.skipif(
        leak_scan_kernel() is None,
        reason="no CSR kernel for the LIF scan; the grid is the only readout",
    )
    def test_relabel_reads_winners_on_the_lif_scan(
        self, trained_snn, digits_small, monkeypatch
    ):
        """The window's relabel pass reads winners through
        ``readout_winners``, so a clean candidate takes the scan."""
        from repro.ir.backends import lif_scan

        train_set, test_set = digits_small
        calls = []
        scan = lif_scan.scan_winners

        def counting_scan(network, trains, *args, **kwargs):
            calls.append(len(trains))
            return scan(network, trains, *args, **kwargs)

        server = _make_server(trained_snn, test_set.images)
        try:
            learner = ContinualLearner(
                server,
                "live",
                trained_snn,
                LabeledStream(train_set, window_size=16, seed=0),
                test_set.take(8),
                seed=0,
                shadow_fraction=0.25,
            )
            monkeypatch.setattr(lif_scan, "scan_winners", counting_scan)
            learner.run_window()
        finally:
            server.close()
        # One call over the 12 training rows; nothing else in the
        # window reads the scan.
        assert calls == [12]

    def test_poisoned_update_rolls_back_bit_exactly(
        self, trained_snn, digits_small, tmp_path
    ):
        """SRAM bit errors trash a candidate; the guard must roll the
        serving model back to the baseline snapshot, bit for bit."""
        train_set, test_set = digits_small
        server = _make_server(trained_snn, test_set.images)
        store = SnapshotStore(
            ModelCache(tmp_path / "snaps"), "live", test_set.take(24)
        )
        baseline_direct = predict_batch(
            trained_snn, np.asarray(test_set.images), indices=list(range(8)), seed=0
        )
        try:
            learner = ContinualLearner(
                server,
                "live",
                trained_snn,
                LabeledStream(train_set, window_size=16, seed=0),
                test_set.take(24),
                slo=LearnerSLO(
                    gate_retention=0.0,
                    gate_tolerance=0.0,
                    rollback_retention=1.0,
                ),
                store=store,
                seed=0,
                shadow_fraction=0.0,
                update_injector=FaultInjector(
                    FaultConfig.sram_ber(0.5, seed=0)
                ),
            )
            record = learner.run_window()
            assert record["ber"] is True
            assert record["outcome"] == "rolled-back"
            rollback = record["rollback"]
            assert rollback["from_epoch"] == 1 and rollback["to_epoch"] == 0
            assert rollback["source"] == "snapshot"
            assert rollback["baseline_restored"] is True
            assert learner.rollbacks == 1
            assert learner.rollbacks_restored is True
            assert learner.serving_epoch == 0
            # Two swaps: the bad promotion and the rollback.
            assert learner.hot_swaps == 2
            # The server answers exactly as the baseline did.
            served = server.predict_many("live", indices=list(range(8)))
            np.testing.assert_array_equal(served, baseline_direct)
            # Learning state reverted too: weights match the baseline.
            np.testing.assert_array_equal(
                learner.network.weights, trained_snn.weights
            )
            health = learner.health()
            assert health["rollbacks"] == 1
            assert health["last_rollback_epoch"] == 1
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Pool-backend hot swap
# ---------------------------------------------------------------------------


class TestPoolHotSwap:
    def test_hot_swap_rolls_shards_onto_new_weights(
        self, trained_snn, digits_small
    ):
        _, test_set = digits_small
        images = np.asarray(test_set.images)
        old = clone_network(trained_snn)
        new = clone_network(trained_snn)
        new.neuron_labels = (new.neuron_labels + 1) % new.config.n_labels
        pool = ShardedPool({"live": old}, jobs=2, images=images, seed=0)
        try:
            with pytest.raises(ServingError, match="unknown model"):
                pool.hot_swap({"ghost": new})
            with pytest.raises(ServingError, match="at least one"):
                pool.hot_swap({})
            result = pool.hot_swap({"live": new})
            assert result["swapped"] == ["live"]
            assert all(g >= 1 for g in result["generations"].values())
            stats = pool.stats()
            assert stats["hot_swaps"] == 1
            assert stats["planned_retires"] == 2
            indices = list(range(8))
            got = pool.run_batch("live", indices, images=None)
            expected = predict_batch(new, images, indices=indices, seed=0)
            np.testing.assert_array_equal(got, expected)
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# End to end (tiny, seeded)
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_steady_run_holds_the_learning_invariants(self, tmp_path):
        payload = run_learn_serve(
            "steady",
            seed=0,
            jobs=0,
            windows=2,
            window_size=16,
            concurrency=2,
            snapshot_dir=str(tmp_path / "snaps"),
        )
        chaos = payload["chaos"]
        assert chaos["scenario"] == "steady"
        invariants = chaos["invariants"]
        assert invariants["no_lost_requests"] is True
        assert invariants["no_duplicate_responses"] is True
        assert invariants["untouched_tenant_bit_identical"] is True
        assert invariants["learner_serving_consistent"] is True
        assert invariants["supervisor_recovered"] is True
        learner = payload["learner"]
        assert learner["windows"] == 2
        assert len(learner["windows_log"]) == 2
        assert (
            learner["promotions"] + learner["rejections"] == 2
            or learner["rollbacks"] >= 1
        )
        assert payload["health"]["learner"]["epoch"] == learner["epoch"]
        assert chaos["outcomes"]["ok"] > 0
