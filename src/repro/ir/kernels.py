"""Elementwise/contraction kernels shared by both IR executors.

Every kernel here replicates — operation for operation, in the same
float order — the exact NumPy expressions of the legacy model forward
passes (``mlp/activations.py``, ``mlp/quantized.py``,
``fixedpoint/qformat.py``, ``snn/coding.py``), so the serial
interpreter and the tiled executor produce bitwise-identical
results to the retained oracles.  Do not "simplify" an expression here
without re-deriving bit-identity: e.g. the two sequential SCALEs of the
quantized datapath are *not* one multiply by the product of the scales.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray, slope: float) -> np.ndarray:
    """Numerically stable logistic — exactly ``activations.make_sigmoid``."""
    z = slope * np.asarray(x, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def step(x: np.ndarray) -> np.ndarray:
    """Hard threshold — exactly ``activations.make_step``."""
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def lut_evaluate(
    x: np.ndarray,
    slopes: np.ndarray,
    intercepts: np.ndarray,
    x_min: float,
    x_max: float,
    segments: int,
) -> np.ndarray:
    """Piecewise-linear sigmoid — exactly ``SigmoidLUT.evaluate``."""
    x = np.asarray(x, dtype=np.float64)
    width = (x_max - x_min) / segments
    index = np.clip(
        ((x - x_min) / width).astype(np.int64), 0, segments - 1
    )
    y = slopes[index] * x + intercepts[index]
    y = np.where(x < x_min, 0.0, y)
    y = np.where(x > x_max, 1.0, y)
    return np.clip(y, 0.0, 1.0)


def quantize(
    x: np.ndarray, scale: float, min_code: int, max_code: int
) -> np.ndarray:
    """Round-to-code — exactly ``QFormat.quantize_code``."""
    return np.clip(
        np.round(np.asarray(x, dtype=np.float64) / scale), min_code, max_code
    ).astype(np.int64)


def scale(x: np.ndarray, factor: float) -> np.ndarray:
    """One fixed-point rescale step: ``float64(x) * factor``.

    Matches the quantized MLP's ``accum.astype(float64) * scale`` for
    integer inputs and a plain float multiply for float inputs.
    """
    return np.asarray(x, dtype=np.float64) * factor


def gemv(x: np.ndarray, w: np.ndarray, cast: str = "") -> np.ndarray:
    """Synaptic accumulate ``x @ w.T`` (``cast="int64"``: integer path)."""
    if cast == "int64":
        return x @ w.T.astype(np.int64)
    return x @ w.T


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def counts(
    images: np.ndarray, duration: float, max_rate_interval: float
) -> np.ndarray:
    """Deterministic luminance->count front end, cast to float64.

    Delegates to :func:`repro.snn.coding.deterministic_counts_batch`
    (shared, not replicated — it is already the single implementation
    both SNNwot and SNN+BP call) and applies the families' common
    ``.astype(float64)`` cast.
    """
    from ..snn.coding import deterministic_counts_batch

    return deterministic_counts_batch(
        images, duration=duration, max_rate_interval=max_rate_interval
    ).astype(np.float64)


def argmax_rows(x: np.ndarray) -> np.ndarray:
    return np.argmax(x, axis=-1).astype(np.int64)
