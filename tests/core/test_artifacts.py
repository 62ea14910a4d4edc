"""Tests for the content-addressed trained-model cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import (
    CacheStats,
    ModelCache,
    cache_enabled,
    cache_key,
    cached_train,
    coder_signature,
    dataset_signature,
)
from repro.core.config import MLPConfig, SNNConfig
from repro.datasets.base import Dataset
from repro.datasets.digits import load_digits
from repro.mlp.network import MLP
from repro.snn.coding import GaussianCoder, PoissonCoder


@pytest.fixture()
def tiny_pair():
    return load_digits(n_train=60, n_test=20, seed=2, side=10)


@pytest.fixture()
def cache(tmp_path):
    return ModelCache(tmp_path / "cache")


def _mlp_factory(config, calls):
    def factory():
        calls.append(1)
        return MLP(config)

    return factory


class TestKeys:
    def test_key_is_stable(self, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        assert cache_key("mlp", config, train_set) == cache_key(
            "mlp", config, train_set
        )

    def test_key_changes_with_config(self, tiny_pair):
        train_set, _ = tiny_pair
        a = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        b = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=9)
        assert cache_key("mlp", a, train_set) != cache_key("mlp", b, train_set)

    def test_key_changes_with_dataset_content(self, tiny_pair):
        train_set, _ = tiny_pair
        images = np.array(train_set.images, copy=True)
        images[0, 0] ^= 1  # single-bit content change
        altered = Dataset(
            images=images,
            labels=train_set.labels,
            n_classes=train_set.n_classes,
            name=train_set.name,
        )
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        assert cache_key("mlp", config, train_set) != cache_key(
            "mlp", config, altered
        )

    def test_key_changes_with_train_params_and_kind(self, tiny_pair):
        train_set, _ = tiny_pair
        config = SNNConfig(n_inputs=train_set.n_inputs, n_neurons=8)
        base = cache_key("snn", config, train_set, {"epochs": 3})
        assert base != cache_key("snn", config, train_set, {"epochs": 4})
        assert base != cache_key("snnbp", config, train_set, {"epochs": 3})

    def test_dataset_signature_includes_labels(self, tiny_pair):
        train_set, _ = tiny_pair
        labels = np.array(train_set.labels, copy=True)
        labels[0] = (labels[0] + 1) % train_set.n_classes
        relabeled = Dataset(
            images=train_set.images,
            labels=labels,
            n_classes=train_set.n_classes,
            name=train_set.name,
        )
        assert dataset_signature(train_set) != dataset_signature(relabeled)

    def test_coder_signature_distinguishes_coders(self):
        poisson = PoissonCoder(duration=100.0, max_rate_interval=50.0)
        gaussian = GaussianCoder(duration=100.0, max_rate_interval=50.0)
        shorter = PoissonCoder(duration=50.0, max_rate_interval=50.0)
        assert coder_signature(poisson) != coder_signature(gaussian)
        assert coder_signature(poisson) != coder_signature(shorter)
        assert coder_signature(None) == {"class": None}


class TestModelCache:
    def test_miss_then_hit(self, cache, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        calls = []
        first = cache.get_or_train(
            "mlp", config, train_set, _mlp_factory(config, calls)
        )
        second = cache.get_or_train(
            "mlp", config, train_set, _mlp_factory(config, calls)
        )
        assert len(calls) == 1  # second call trained nothing
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "errors": 0,
            "corrupt_evictions": 0,
            "capacity_evictions": 0,
        }
        np.testing.assert_array_equal(first.w_hidden, second.w_hidden)

    def test_corrupt_entry_falls_back_to_retraining(self, cache, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        calls = []
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        key = cache_key("mlp", config, train_set)
        cache.path_for(key).write_bytes(b"not an npz archive")
        model = cache.get_or_train(
            "mlp", config, train_set, _mlp_factory(config, calls)
        )
        assert len(calls) == 2
        # The sha256 sidecar catches the corruption *before* the loader
        # even runs: counted as an integrity eviction, not a load error.
        assert cache.stats.corrupt_evictions == 1
        assert cache.stats.errors == 0
        assert isinstance(model, MLP)
        # The corrupt entry was overwritten with a valid one.
        calls_before = len(calls)
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        assert len(calls) == calls_before

    def test_legacy_entry_without_sidecar_still_loads(self, cache, tiny_pair):
        """Pre-integrity entries (no .sha256) are tolerated as hits."""
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        calls = []
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        key = cache_key("mlp", config, train_set)
        artifacts.digest_sidecar(cache.path_for(key)).unlink()
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.corrupt_evictions == 0

    def test_corrupt_legacy_entry_falls_back_via_loader(self, cache, tiny_pair):
        """No sidecar + garbage bytes: the loader-level fallback fires."""
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        calls = []
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        key = cache_key("mlp", config, train_set)
        path = cache.path_for(key)
        artifacts.digest_sidecar(path).unlink()
        path.write_bytes(b"not an npz archive")
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        assert len(calls) == 2
        assert cache.stats.errors == 1
        assert cache.stats.corrupt_evictions == 0

    def test_sidecar_written_and_verifies(self, cache, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, []))
        path = cache.path_for(cache_key("mlp", config, train_set))
        sidecar = artifacts.digest_sidecar(path)
        assert sidecar.exists()
        assert artifacts.verify_digest_sidecar(path) is True
        assert (
            sidecar.read_text().strip() == artifacts.file_digest(path)
        )

    def test_single_bit_flip_is_caught(self, cache, tiny_pair):
        """Integrity acceptance: one flipped bit evicts + retrains."""
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        calls = []
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        path = cache.path_for(cache_key("mlp", config, train_set))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        assert artifacts.verify_digest_sidecar(path) is False
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, calls))
        assert len(calls) == 2
        assert cache.stats.corrupt_evictions == 1
        # Fresh entry is valid again.
        assert artifacts.verify_digest_sidecar(path) is True

    def test_clear_removes_entries(self, cache, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, []))
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_stats_reset(self):
        stats = CacheStats(
            hits=2,
            misses=3,
            stores=3,
            errors=1,
            corrupt_evictions=4,
            capacity_evictions=5,
        )
        stats.reset()
        assert stats.as_dict() == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "errors": 0,
            "corrupt_evictions": 0,
            "capacity_evictions": 0,
        }


class TestEnvControls:
    def test_no_cache_env_bypasses(self, monkeypatch, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not cache_enabled()
        calls = []
        cached_train("mlp", config, train_set, _mlp_factory(config, calls))
        cached_train("mlp", config, train_set, _mlp_factory(config, calls))
        assert len(calls) == 2  # trained every time, nothing cached

    def test_cache_dir_env_respected(self, monkeypatch, tmp_path, tiny_pair):
        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        artifacts.reset_default_cache()
        try:
            cached_train("mlp", config, train_set, _mlp_factory(config, []))
            assert list((tmp_path / "elsewhere").glob("*.npz"))
        finally:
            artifacts.reset_default_cache()


class TestTrainingHelpersAreMemoized:
    def test_warm_helper_calls_train_zero_times(
        self, monkeypatch, tmp_path, tiny_pair
    ):
        """The acceptance criterion: a warm run skips all training."""
        from repro.analysis import common

        train_set, test_set = tiny_pair
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        artifacts.reset_default_cache()
        try:
            config = MLPConfig(
                n_inputs=train_set.n_inputs, n_hidden=6, epochs=2
            ).validate()
            cold = common.train_mlp_model(config, train_set, epochs=2)
            stats_after_cold = artifacts.cache_stats()
            assert stats_after_cold["misses"] == 1
            warm = common.train_mlp_model(config, train_set, epochs=2)
            stats_after_warm = artifacts.cache_stats()
            assert stats_after_warm["hits"] == 1
            assert stats_after_warm["misses"] == 1  # no new training
            np.testing.assert_array_equal(cold.w_hidden, warm.w_hidden)
            np.testing.assert_array_equal(
                cold.predict(test_set.normalized()),
                warm.predict(test_set.normalized()),
            )
        finally:
            artifacts.reset_default_cache()

    def test_snn_helper_restores_coder_on_hit(
        self, monkeypatch, tmp_path, tiny_pair
    ):
        from repro.analysis import common

        train_set, _ = tiny_pair
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "snncache"))
        artifacts.reset_default_cache()
        try:
            config = SNNConfig(
                n_inputs=train_set.n_inputs,
                n_neurons=10,
                n_labels=train_set.n_classes,
                epochs=1,
            ).validate()
            coder = GaussianCoder(
                duration=config.t_period,
                max_rate_interval=config.min_spike_interval,
            )
            cold = common.train_snn_model(config, train_set, epochs=1, coder=coder)
            warm = common.train_snn_model(config, train_set, epochs=1, coder=coder)
            assert artifacts.cache_stats()["hits"] == 1
            assert isinstance(warm.coder, GaussianCoder)
            np.testing.assert_array_equal(cold.weights, warm.weights)
            np.testing.assert_array_equal(
                cold.population.thresholds, warm.population.thresholds
            )
            np.testing.assert_array_equal(cold.neuron_labels, warm.neuron_labels)
        finally:
            artifacts.reset_default_cache()


class TestCapacityBound:
    """Size-limited LRU eviction (``max_bytes`` / REPRO_CACHE_MAX_BYTES)."""

    @staticmethod
    def _store(cache, train_set, n_hidden):
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=n_hidden)
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, []))
        return cache.path_for(cache_key("mlp", config, train_set))

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert ModelCache(tmp_path / "c").max_bytes is None

    @pytest.mark.parametrize("raw", ["", "not-a-number", "0", "-5"])
    def test_malformed_env_limit_means_unbounded(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", raw)
        assert artifacts.cache_max_bytes() is None

    def test_env_limit_is_picked_up(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert artifacts.cache_max_bytes() == 12345
        assert ModelCache(tmp_path / "c").max_bytes == 12345

    def test_oldest_entry_is_evicted_first(self, tmp_path, tiny_pair):
        import os as _os

        train_set, _ = tiny_pair
        probe = ModelCache(tmp_path / "cache")
        first = self._store(probe, train_set, 4)
        entry_bytes = probe._entry_size(first)
        # Room for two entries (plus slack), not three.
        cache = ModelCache(
            tmp_path / "cache", max_bytes=int(entry_bytes * 2.5)
        )
        second = self._store(cache, train_set, 5)
        # Age the entries deterministically: second is the stalest.
        for age, path in ((100, first), (300, second)):
            stat = path.stat()
            _os.utime(path, (stat.st_atime, stat.st_mtime - age))
        third = self._store(cache, train_set, 6)
        assert not second.exists(), "the least-recently-used entry goes"
        assert first.exists()
        assert third.exists(), "the entry just written is shielded"
        assert cache.stats.capacity_evictions >= 1

    def test_hit_refreshes_recency(self, tmp_path, tiny_pair):
        import os as _os

        train_set, _ = tiny_pair
        probe = ModelCache(tmp_path / "cache")
        first = self._store(probe, train_set, 4)
        entry_bytes = probe._entry_size(first)
        cache = ModelCache(
            tmp_path / "cache", max_bytes=int(entry_bytes * 2.5)
        )
        second = self._store(cache, train_set, 5)
        # Make `first` stale, then hit it — the hit must refresh it.
        for age, path in ((300, first), (100, second)):
            stat = path.stat()
            _os.utime(path, (stat.st_atime, stat.st_mtime - age))
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=4)
        cache.get_or_train("mlp", config, train_set, _mlp_factory(config, []))
        assert cache.stats.hits == 1
        third = self._store(cache, train_set, 6)
        assert first.exists(), "a fresh hit saves the entry from eviction"
        assert not second.exists(), "recency, not insertion order, decides"
        assert third.exists()

    def test_non_positive_constructor_limit_means_unbounded(self, tmp_path):
        assert ModelCache(tmp_path / "c", max_bytes=0).max_bytes is None
        assert ModelCache(tmp_path / "c", max_bytes=-1).max_bytes is None

    def test_one_bound_over_every_subdirectory(
        self, tmp_path, tiny_pair, monkeypatch
    ):
        """Model, ``sweeps/`` and ``serving/`` entries share one LRU bound."""
        import os as _os

        from repro.core.artifacts import ArrayBundleCache, ServingSnapshotCache

        train_set, _ = tiny_pair
        probe = ModelCache(tmp_path / "probe")
        entry_bytes = probe._entry_size(self._store(probe, train_set, 4))
        bound = int(entry_bytes * 2.5)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(bound))
        root = tmp_path / "cache"
        bundle = {"a": np.zeros(entry_bytes // 8)}  # about one entry

        def age(path, seconds):
            stat = path.stat()
            _os.utime(path, (stat.st_atime, stat.st_mtime - seconds))

        def assert_bounded(just_written):
            entries = sorted(root.rglob("*.npz"))
            size = sum(probe._entry_size(path) for path in entries)
            assert size <= bound or entries == [just_written]

        model = self._store(ModelCache(root), train_set, 4)
        assert_bounded(model)
        sweeps = ArrayBundleCache(root)
        sweeps.get_or_compute("shard", lambda: bundle)
        sweep = sweeps.path_for("shard")
        assert_bounded(sweep)
        # The sweep shard, one directory down, is the stalest entry.
        age(model, 100)
        age(sweep, 300)
        serving = ServingSnapshotCache(root)
        serving.store("snapshot", bundle)
        snapshot = serving.path_for("snapshot")
        assert_bounded(snapshot)
        assert not sweep.exists(), "the oldest entry goes, wherever it is"
        assert model.exists() and snapshot.exists()
        assert serving.stats.capacity_evictions == 1
        # Now the serving snapshot is stalest: a model store evicts it.
        age(model, 100)
        age(snapshot, 300)
        newer = self._store(ModelCache(root), train_set, 5)
        assert_bounded(newer)
        assert not snapshot.exists()
        assert model.exists() and newer.exists()


class TestArrayBundleCache:
    """The sweep-shard store: npz bundles under ``<cache>/sweeps/``."""

    @staticmethod
    def _bundle():
        return {
            "a": np.arange(6, dtype=np.float64),
            "b": np.array([1, 2, 3], dtype=np.int64),
        }

    def test_miss_then_hit_round_trip(self, tmp_path):
        from repro.core.artifacts import ArrayBundleCache

        cache = ArrayBundleCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return self._bundle()

        first = cache.get_or_compute("k1", compute)
        second = cache.get_or_compute("k1", compute)
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        for name in ("a", "b"):
            assert np.array_equal(first[name], second[name])
        assert cache.path_for("k1").parent.name == "sweeps"

    def test_corrupt_entry_evicted_and_recomputed(self, tmp_path):
        from repro.core.artifacts import ArrayBundleCache

        cache = ArrayBundleCache(tmp_path)
        cache.get_or_compute("k1", self._bundle)
        cache.path_for("k1").write_bytes(b"not an npz")
        again = cache.get_or_compute("k1", self._bundle)
        assert cache.stats.corrupt_evictions == 1
        assert np.array_equal(again["a"], self._bundle()["a"])
        # The recompute restored a loadable entry.
        cache2 = ArrayBundleCache(tmp_path)
        cache2.get_or_compute("k1", self._bundle)
        assert cache2.stats.hits == 1

    def test_distinct_keys_distinct_entries(self, tmp_path):
        from repro.core.artifacts import ArrayBundleCache

        cache = ArrayBundleCache(tmp_path)
        cache.get_or_compute("k1", self._bundle)
        cache.get_or_compute("k2", lambda: {"a": np.zeros(2)})
        assert cache.stats.misses == 2
        assert np.array_equal(
            cache.get_or_compute("k2", self._bundle)["a"], np.zeros(2)
        )

    def test_clear_removes_entries(self, tmp_path):
        from repro.core.artifacts import ArrayBundleCache

        cache = ArrayBundleCache(tmp_path)
        cache.get_or_compute("k1", self._bundle)
        cache.get_or_compute("k2", self._bundle)
        assert cache.clear() == 2
        cache.get_or_compute("k1", self._bundle)
        assert cache.stats.misses == 3


class TestVerifyCache:
    """Offline sidecar audit over every cache family (``cache verify``)."""

    def _populate(self, base, tiny_pair):
        from repro.core.artifacts import ArrayBundleCache

        train_set, _ = tiny_pair
        config = MLPConfig(n_inputs=train_set.n_inputs, n_hidden=8)
        model_cache = ModelCache(base)
        model_cache.get_or_train(
            "mlp", config, train_set, _mlp_factory(config, [])
        )
        ArrayBundleCache(base).get_or_compute(
            "sweep-k", lambda: {"a": np.arange(4.0)}
        )
        return model_cache, cache_key("mlp", config, train_set)

    def test_empty_directory_reports_zero(self, tmp_path):
        report = artifacts.verify_cache(tmp_path)
        assert report == {
            "directory": str(tmp_path),
            "checked": 0,
            "verified": 0,
            "corrupt": 0,
            "missing_sidecar": 0,
            "evicted": 0,
            "entries": [],
        }

    def test_clean_entries_all_verify(self, tmp_path, tiny_pair):
        self._populate(tmp_path, tiny_pair)
        report = artifacts.verify_cache(tmp_path)
        assert report["checked"] == 2
        assert report["verified"] == 2
        assert report["corrupt"] == 0
        assert {e["status"] for e in report["entries"]} == {"verified"}
        # Entries cover both the root and the sweeps/ subdirectory.
        assert any(e["path"].startswith("sweeps/") for e in report["entries"])

    def test_bit_flip_is_reported_and_evictable(self, tmp_path, tiny_pair):
        model_cache, key = self._populate(tmp_path, tiny_pair)
        path = model_cache.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        report = artifacts.verify_cache(tmp_path)
        assert report["corrupt"] == 1
        assert report["evicted"] == 0
        assert path.exists()  # audit without --evict never deletes
        evicting = artifacts.verify_cache(tmp_path, evict=True)
        assert evicting["corrupt"] == 1
        assert evicting["evicted"] == 1
        assert not path.exists()
        assert not artifacts.digest_sidecar(path).exists()
        clean = artifacts.verify_cache(tmp_path)
        assert clean["corrupt"] == 0
        assert clean["checked"] == 1

    def test_missing_sidecar_is_tolerated_not_evicted(
        self, tmp_path, tiny_pair
    ):
        model_cache, key = self._populate(tmp_path, tiny_pair)
        path = model_cache.path_for(key)
        artifacts.digest_sidecar(path).unlink()
        report = artifacts.verify_cache(tmp_path, evict=True)
        assert report["missing_sidecar"] == 1
        assert report["evicted"] == 0
        assert path.exists()

    def test_live_snapshots_are_audited_and_evictable(
        self, tmp_path, trained_snn, digits_small
    ):
        """The learner's default snapshot directory is part of the audit."""
        from repro.serve.learner import SnapshotStore

        _, test_set = digits_small
        store = SnapshotStore(
            ModelCache(tmp_path / "live-snapshots"), "live", test_set.take(8)
        )
        path = store.cache.path_for(store.save(0, trained_snn))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        report = artifacts.verify_cache(tmp_path, evict=True)
        assert report["checked"] == 1
        assert report["corrupt"] == 1 and report["evicted"] == 1
        assert report["entries"][0]["path"].startswith("live-snapshots/")
        assert not path.exists()

    def test_defaults_to_the_active_cache_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachehome"))
        report = artifacts.verify_cache()
        assert report["directory"] == str(tmp_path / "cachehome")
