"""Fixtures for the execution-IR suite.

Builds the two derived model kinds (quantized MLP, no-time SNN) from
the session-scoped trained models, and trains the small SNN+BP model
once — so the per-kind golden tests share one training cost.
"""

import pytest

from repro.mlp.quantized import QuantizedMLP
from repro.snn.snn_bp import train_snn_bp
from repro.snn.snn_wot import SNNWithoutTime


@pytest.fixture(scope="session")
def quantized_mlp(trained_mlp) -> QuantizedMLP:
    return QuantizedMLP(trained_mlp)


@pytest.fixture(scope="session")
def snnwot_model(trained_snn) -> SNNWithoutTime:
    return SNNWithoutTime(trained_snn)


@pytest.fixture(scope="session")
def snnbp_model(digits_small, snn_config_small):
    train_set, _ = digits_small
    return train_snn_bp(snn_config_small, train_set, epochs=4)
