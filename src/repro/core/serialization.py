"""Saving and loading trained models (NPZ-based, numpy-only).

Both model families serialize to a single ``.npz`` file carrying the
configuration (as JSON in a zero-dimensional array) plus the learned
arrays, so a trained accelerator workload can be checkpointed and
shipped — e.g. train once, then drive the hardware simulators or the
TrueNorth mapping from the same weights across sessions.

Formats are versioned; loading an unknown version or model kind fails
loudly rather than guessing.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Union

import numpy as np

from .config import MLPConfig, SNNConfig
from .errors import ReproError, SerializationError

#: Bumped on any breaking change to the on-disk layout.
FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def _config_to_json(config) -> str:
    return json.dumps(dataclasses.asdict(config))


def _config_from_json(text: str, config_cls):
    """Rebuild a config dataclass from its checkpointed JSON.

    A corrupted checkpoint (invalid JSON, wrong payload type, unknown
    or missing keys) fails with :class:`SerializationError` — part of
    the library's exception hierarchy — instead of leaking raw
    ``TypeError``/``KeyError``/``json.JSONDecodeError``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"checkpointed {config_cls.__name__} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise SerializationError(
            f"checkpointed {config_cls.__name__} must be a JSON object, "
            f"got {type(data).__name__}"
        )
    try:
        config = config_cls(**data)
    except TypeError as exc:
        raise SerializationError(
            f"checkpointed {config_cls.__name__} has unknown or missing "
            f"fields: {exc}"
        ) from exc
    return config.validate()


def _resolve_npz_path(path: PathLike) -> pathlib.Path:
    """The path :func:`numpy.savez` actually writes for ``path``.

    ``np.savez`` appends ``.npz`` whenever the filename does not
    already end with it; mirroring that rule here (on the *name*, not
    via ``with_suffix``, which mangles multi-dot names) lets save
    functions return the real on-disk location.
    """
    path = pathlib.Path(path)
    if path.name.endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def save_mlp(network, path: PathLike) -> pathlib.Path:
    """Serialize a trained :class:`~repro.mlp.network.MLP`.

    Returns the path actually written (``.npz`` appended when the
    caller's path lacks the suffix, matching ``np.savez``).
    """
    path = _resolve_npz_path(path)
    np.savez(
        path,
        kind=np.array("mlp"),
        version=np.array(FORMAT_VERSION),
        config=np.array(_config_to_json(network.config)),
        w_hidden=network.w_hidden,
        b_hidden=network.b_hidden,
        w_output=network.w_output,
        b_output=network.b_output,
    )
    return path


def load_mlp(path: PathLike):
    """Load an MLP saved by :func:`save_mlp`."""
    from ..mlp.network import MLP

    data = _open(path, expected_kind="mlp")
    config = _config_from_json(str(data["config"]), MLPConfig)
    network = MLP(config)
    network.w_hidden = data["w_hidden"]
    network.b_hidden = data["b_hidden"]
    network.w_output = data["w_output"]
    network.b_output = data["b_output"]
    _check_shape(network.w_hidden, (config.n_hidden, config.n_inputs), "w_hidden")
    _check_shape(network.w_output, (config.n_output, config.n_hidden), "w_output")
    return network


def save_snn(network, path: PathLike) -> pathlib.Path:
    """Serialize a trained :class:`~repro.snn.network.SpikingNetwork`.

    Persists weights, per-neuron thresholds and (if present) the
    neuron-label map, i.e. everything the inference paths need.
    """
    path = _resolve_npz_path(path)
    labels = (
        network.neuron_labels
        if network.neuron_labels is not None
        else np.full(network.config.n_neurons, -2, dtype=np.int64)
    )
    np.savez(
        path,
        kind=np.array("snn"),
        version=np.array(FORMAT_VERSION),
        config=np.array(_config_to_json(network.config)),
        weights=network.weights,
        thresholds=network.population.thresholds,
        neuron_labels=labels,
    )
    return path


def load_snn(path: PathLike):
    """Load a SpikingNetwork saved by :func:`save_snn`."""
    from ..snn.network import SpikingNetwork

    data = _open(path, expected_kind="snn")
    config = _config_from_json(str(data["config"]), SNNConfig)
    network = SpikingNetwork(config)
    network.weights = data["weights"]
    network.population.thresholds[:] = data["thresholds"]
    labels = data["neuron_labels"]
    network.neuron_labels = None if labels.min() == -2 else labels
    _check_shape(network.weights, (config.n_neurons, config.n_inputs), "weights")
    return network


def save_snn_bp(model, path: PathLike) -> pathlib.Path:
    """Serialize a trained :class:`~repro.snn.snn_bp.BackPropSNN`.

    Weights, config and learning rate are the whole state: the neuron
    label groups are a deterministic function of the config (round-
    robin ``arange % n_labels``), so they are rebuilt on load.
    """
    path = _resolve_npz_path(path)
    np.savez(
        path,
        kind=np.array("snnbp"),
        version=np.array(FORMAT_VERSION),
        config=np.array(_config_to_json(model.config)),
        weights=model.weights,
        learning_rate=np.array(model.learning_rate),
    )
    return path


def load_snn_bp(path: PathLike):
    """Load a BackPropSNN saved by :func:`save_snn_bp`."""
    from ..snn.snn_bp import BackPropSNN

    data = _open(path, expected_kind="snnbp")
    config = _config_from_json(str(data["config"]), SNNConfig)
    model = BackPropSNN(config, learning_rate=float(data["learning_rate"]))
    model.weights = data["weights"]
    _check_shape(model.weights, (config.n_neurons, config.n_inputs), "weights")
    return model


def load_model(path: PathLike):
    """Load any model kind by inspecting the file."""
    with np.load(pathlib.Path(path), allow_pickle=False) as data:
        kind = str(data["kind"])
    if kind == "mlp":
        return load_mlp(path)
    if kind == "snn":
        return load_snn(path)
    if kind == "snnbp":
        return load_snn_bp(path)
    raise ReproError(f"unknown model kind {kind!r} in {path}")


def _open(path: PathLike, expected_kind: str) -> dict:
    path = pathlib.Path(path)
    if not path.exists():
        raise ReproError(f"model file not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        loaded = {key: data[key] for key in data.files}
    kind = str(loaded.get("kind", ""))
    if kind != expected_kind:
        raise ReproError(
            f"{path} holds a {kind or 'non-repro'} model, expected {expected_kind}"
        )
    version = int(loaded["version"])
    if version != FORMAT_VERSION:
        raise ReproError(
            f"{path} uses format version {version}; this build reads {FORMAT_VERSION}"
        )
    return loaded


def _check_shape(array: np.ndarray, expected: tuple, name: str) -> None:
    if array.shape != expected:
        raise ReproError(
            f"{name} has shape {array.shape}, config expects {expected}"
        )


def save_model(model, path: PathLike) -> pathlib.Path:
    """Serialize any model kind, dispatching on its structure."""
    if hasattr(model, "w_hidden"):
        return save_mlp(model, path)
    if hasattr(model, "population"):
        return save_snn(model, path)
    if hasattr(model, "learning_rate") and hasattr(model, "weights"):
        return save_snn_bp(model, path)
    raise SerializationError(
        f"cannot serialize {type(model).__name__}: expected an MLP, a "
        "SpikingNetwork or a BackPropSNN"
    )

