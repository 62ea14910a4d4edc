"""Tests for model save/load round-trips."""

import json

import numpy as np
import pytest

from repro.core.errors import ReproError, SerializationError
from repro.core.serialization import (
    load_mlp,
    load_model,
    load_snn,
    save_mlp,
    save_model,
    save_snn,
)


class TestMLPRoundTrip:
    def test_weights_identical(self, trained_mlp, tmp_path):
        path = tmp_path / "mlp.npz"
        save_mlp(trained_mlp, path)
        loaded = load_mlp(path)
        assert np.array_equal(loaded.w_hidden, trained_mlp.w_hidden)
        assert np.array_equal(loaded.b_output, trained_mlp.b_output)

    def test_predictions_identical(self, trained_mlp, digits_small, tmp_path):
        _, test_set = digits_small
        path = tmp_path / "mlp.npz"
        save_mlp(trained_mlp, path)
        loaded = load_mlp(path)
        assert np.array_equal(
            loaded.predict_dataset(test_set), trained_mlp.predict_dataset(test_set)
        )

    def test_config_restored(self, trained_mlp, tmp_path):
        path = tmp_path / "mlp.npz"
        save_mlp(trained_mlp, path)
        assert load_mlp(path).config == trained_mlp.config


class TestSNNRoundTrip:
    def test_state_identical(self, trained_snn, tmp_path):
        path = tmp_path / "snn.npz"
        save_snn(trained_snn, path)
        loaded = load_snn(path)
        assert np.array_equal(loaded.weights, trained_snn.weights)
        assert np.array_equal(
            loaded.population.thresholds, trained_snn.population.thresholds
        )
        assert np.array_equal(loaded.neuron_labels, trained_snn.neuron_labels)

    def test_predictions_identical(self, trained_snn, digits_small, tmp_path):
        _, test_set = digits_small
        path = tmp_path / "snn.npz"
        save_snn(trained_snn, path)
        loaded = load_snn(path)
        original = [
            trained_snn.predict_image(img, rng=i)
            for i, img in enumerate(test_set.images[:10])
        ]
        restored = [
            loaded.predict_image(img, rng=i)
            for i, img in enumerate(test_set.images[:10])
        ]
        assert original == restored

    def test_unlabeled_network_round_trips(self, tmp_path):
        from repro.core.config import SNNConfig
        from repro.snn.network import SpikingNetwork

        network = SpikingNetwork(SNNConfig(epochs=1).with_neurons(10))
        path = tmp_path / "snn.npz"
        save_snn(network, path)
        assert load_snn(path).neuron_labels is None

    def test_snn_wot_works_after_reload(self, trained_snn, digits_small, tmp_path):
        from repro.snn.snn_wot import SNNWithoutTime

        _, test_set = digits_small
        path = tmp_path / "snn.npz"
        save_snn(trained_snn, path)
        wot = SNNWithoutTime(load_snn(path))
        original = SNNWithoutTime(trained_snn).predict_dataset(test_set)
        assert np.array_equal(wot.predict_dataset(test_set), original)


class TestSuffixlessPaths:
    """save_* must return the path numpy actually wrote.

    ``np.savez`` appends ``.npz`` when the name lacks it; the save
    functions mirror that rule so a suffixless caller path round-trips.
    """

    def test_mlp_suffixless_round_trip(self, trained_mlp, tmp_path):
        requested = tmp_path / "mlp-checkpoint"  # no suffix
        written = save_mlp(trained_mlp, requested)
        assert written.exists()
        assert written.name == "mlp-checkpoint.npz"
        loaded = load_mlp(written)
        assert np.array_equal(loaded.w_hidden, trained_mlp.w_hidden)

    def test_snn_suffixless_round_trip(self, trained_snn, tmp_path):
        written = save_snn(trained_snn, tmp_path / "snn-checkpoint")
        assert written.exists()
        assert written.name == "snn-checkpoint.npz"
        loaded = load_snn(written)
        assert np.array_equal(loaded.weights, trained_snn.weights)

    def test_multi_dot_name_not_mangled(self, trained_mlp, tmp_path):
        # with_suffix would have clobbered ".v2"; the name-append must not.
        written = save_mlp(trained_mlp, tmp_path / "model.v2")
        assert written.name == "model.v2.npz"
        assert written.exists()

    def test_explicit_npz_suffix_unchanged(self, trained_mlp, tmp_path):
        written = save_mlp(trained_mlp, tmp_path / "model.npz")
        assert written == tmp_path / "model.npz"
        assert written.exists()


class TestCorruptConfigJSON:
    """A corrupted checkpointed config fails inside the error hierarchy."""

    def _rewrite_config(self, path, new_config_text):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["config"] = np.array(new_config_text)
        np.savez(path, **arrays)

    def test_invalid_json_raises_serialization_error(self, trained_mlp, tmp_path):
        path = save_mlp(trained_mlp, tmp_path / "mlp.npz")
        self._rewrite_config(path, "{not json")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_mlp(path)

    def test_non_object_json_raises(self, trained_mlp, tmp_path):
        path = save_mlp(trained_mlp, tmp_path / "mlp.npz")
        self._rewrite_config(path, json.dumps([1, 2, 3]))
        with pytest.raises(SerializationError, match="JSON object"):
            load_mlp(path)

    def test_unknown_field_raises(self, trained_mlp, tmp_path):
        path = save_mlp(trained_mlp, tmp_path / "mlp.npz")
        payload = json.loads(json.dumps(trained_mlp.config.__dict__))
        payload["bogus_field"] = 1
        self._rewrite_config(path, json.dumps(payload))
        with pytest.raises(SerializationError, match="unknown or missing"):
            load_mlp(path)

    def test_serialization_error_is_repro_error(self):
        assert issubclass(SerializationError, ReproError)


class TestBackPropSNNRoundTrip:
    def test_round_trip_preserves_predictions(self, tmp_path, digits_small):
        from repro.core.config import SNNConfig
        from repro.core.serialization import load_snn_bp, save_snn_bp
        from repro.snn.snn_bp import BackPropSNN

        train_set, test_set = digits_small
        config = SNNConfig(
            n_inputs=train_set.n_inputs,
            n_neurons=20,
            n_labels=train_set.n_classes,
        ).validate()
        model = BackPropSNN(config, learning_rate=0.3)
        model.train(train_set, epochs=1)
        path = save_snn_bp(model, tmp_path / "bp")
        loaded = load_snn_bp(path)
        assert loaded.learning_rate == model.learning_rate
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(
            loaded.neuron_labels, model.neuron_labels
        )
        np.testing.assert_array_equal(
            loaded.predict(test_set.images), model.predict(test_set.images)
        )
        # kind-dispatching loader and saver both recognize it
        assert load_model(path).learning_rate == model.learning_rate
        assert save_model(model, tmp_path / "bp2").name == "bp2.npz"


class TestSaveModelDispatch:
    def test_dispatches_both_kinds(self, trained_mlp, trained_snn, tmp_path):
        assert save_model(trained_mlp, tmp_path / "a").name == "a.npz"
        assert save_model(trained_snn, tmp_path / "b").name == "b.npz"

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot serialize"):
            save_model(object(), tmp_path / "x")


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_mlp(tmp_path / "nope.npz")

    def test_kind_mismatch(self, trained_mlp, tmp_path):
        path = tmp_path / "mlp.npz"
        save_mlp(trained_mlp, path)
        with pytest.raises(ReproError, match="expected snn"):
            load_snn(path)

    def test_load_model_dispatches(self, trained_mlp, trained_snn, tmp_path):
        mlp_path = tmp_path / "a.npz"
        snn_path = tmp_path / "b.npz"
        save_mlp(trained_mlp, mlp_path)
        save_snn(trained_snn, snn_path)
        from repro.mlp.network import MLP
        from repro.snn.network import SpikingNetwork

        assert isinstance(load_model(mlp_path), MLP)
        assert isinstance(load_model(snn_path), SpikingNetwork)

    def test_version_mismatch(self, trained_mlp, tmp_path):
        import numpy as np

        path = tmp_path / "mlp.npz"
        save_mlp(trained_mlp, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.array(99)
        np.savez(path, **arrays)
        with pytest.raises(ReproError, match="format version"):
            load_mlp(path)
