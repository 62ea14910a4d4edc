"""Accuracy-vs-fault-rate degradation curves (robustness study).

The paper compares MLP+BP and SNNwt/SNNwot on *clean* hardware; the
surrounding literature (e.g. Bouvier et al.'s SNN-hardware survey,
and the SNN-vs-CNN FPGA comparison of Plagwitz et al. — see
PAPERS.md) claims spiking substrates degrade *gracefully* under
hardware faults while dense MLP datapaths do not.  This experiment
tests that claim on the shared physical substrate of both designs:
the 8-bit SRAM weight banks (Table 6).  For each swept bit-error
rate, every stored weight code is corrupted through
:class:`repro.faults.FaultInjector` — the MLP's signed Q2.5 banks and
the SNN's unsigned [0, 255] bank alike — and the three inference
paths are re-evaluated on the same test set.

Faults are fully deterministic given the experiment seed: trial ``t``
of rate ``r`` reseeds the injector with a value derived from
``(seed, t)`` only, so the same seed always yields bit-identical
corruption and therefore identical accuracies.  Rate 0.0 runs the
*uninjected* code path (the hooks return their inputs unchanged), so
the first row of the sweep equals the clean accuracy exactly.

Run it via ``python -m repro report fault-sweep`` (optionally under
``--retries/--timeout/--degrade-scales``).  Both models train through
the shared recipes of :mod:`repro.analysis.common`, so the model cache
serves them to every later run — a re-run at the same scale and seed
trains nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from ..core.config import MLPConfig, SNNConfig
from ..core.errors import ExperimentError
from ..core.experiment import ExperimentResult
from ..core.metrics import accuracy
from ..core.registry import register
from ..datasets.digits import load_digits
from ..faults import FaultConfig, FaultInjector, corrupt_spiking_network
from ..mlp.quantized import QuantizedMLP
from ..snn.network import SNNTrainer
from ..snn.snn_wot import SNNWithoutTime, relabel_for_counts
from .common import train_mlp_model, train_snn_model

#: Default swept SRAM bit-error rates (per stored weight bit).
DEFAULT_RATES = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05)

#: Independent corruption draws averaged per rate (the curve stays
#: deterministic: trial seeds derive from the experiment seed).
DEFAULT_TRIALS = 3

#: Survey expectations the sweep is checked against (qualitative).
PAPER_CLAIMS = [
    {
        "model": "SNN (SNNwt / SNNwot)",
        "expectation": "graceful, near-linear accuracy roll-off under "
        "synaptic faults (Bouvier et al. 2019 survey)",
    },
    {
        "model": "MLP (8-bit datapath)",
        "expectation": "steeper degradation once bit flips reach signed "
        "weight MSBs (fault-tolerance literature on dense ANN datapaths)",
    },
]


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(int(round(value * scale)), floor)


def _trial_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial fault seed (independent of the rate)."""
    return int(seed) * 100_003 + 7919 * int(trial) + 1


@register(
    "fault-sweep",
    "Accuracy under SRAM weight faults (MLP vs SNNwt vs SNNwot)",
    "Robustness study (beyond the paper)",
)
def fault_sweep(
    scale: float = 1.0,
    rates: Optional[Iterable[float]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    mlp_epochs: int = 120,
    snn_epochs: int = 2,
) -> ExperimentResult:
    """Sweep SRAM weight BER and measure accuracy of all three models.

    Args:
        scale: fidelity knob in (0, 1] — scales dataset sizes and
            model widths (the ResilientRunner's degradation target).
        rates: swept bit-error rates (default :data:`DEFAULT_RATES`).
        trials: independent corruption draws averaged per rate.
        seed: experiment seed (datasets, training, fault streams).
        mlp_epochs / snn_epochs: training lengths of the two models.
    """
    if not 0.0 < scale <= 1.0:
        raise ExperimentError(f"scale must be in (0, 1], got {scale}")
    rate_list = [float(r) for r in (DEFAULT_RATES if rates is None else rates)]
    if not rate_list or any(not 0.0 <= r <= 1.0 for r in rate_list):
        raise ExperimentError(f"rates must be probabilities, got {rate_list}")
    if trials < 1:
        raise ExperimentError(f"trials must be >= 1, got {trials}")

    n_train = _scaled(240, scale, 60)
    n_test = _scaled(80, scale, 30)
    train_set, test_set = load_digits(n_train=n_train, n_test=n_test, seed=seed)

    mlp_config = MLPConfig(
        n_hidden=_scaled(24, scale, 8), learning_rate=0.5, epochs=120, seed=seed
    ).validate()
    snn_config = (
        SNNConfig(epochs=2, seed=seed)
        .with_neurons(_scaled(40, scale, 12))
        .validate()
    )

    mlp = train_mlp_model(mlp_config, train_set, epochs=mlp_epochs)
    snn = train_snn_model(snn_config, train_set, epochs=snn_epochs)

    labels = np.asarray(test_set.labels)

    def injector_for(rate: float, trial: int) -> FaultInjector:
        config = FaultConfig(
            weight_bit_flip_ber=rate, seed=_trial_seed(seed, trial)
        )
        return FaultInjector(config)

    def mean_accuracy(
        predict_at: Callable[[FaultInjector], np.ndarray], rate: float
    ) -> float:
        values = [
            accuracy(predict_at(injector_for(rate, trial)), labels)
            for trial in range(trials)
        ]
        return 100.0 * float(np.mean(values))

    # --- MLP (8-bit fixed-point datapath) ------------------------------
    def mlp_predictions(injector: FaultInjector) -> np.ndarray:
        return QuantizedMLP(mlp, injector=injector).predict_dataset(test_set)

    mlp_curve = {rate: mean_accuracy(mlp_predictions, rate) for rate in rate_list}

    # --- SNNwt (timed LIF path; labels from the timed readout) ---------
    def snnwt_predictions(injector: FaultInjector) -> np.ndarray:
        corrupted = corrupt_spiking_network(snn, injector)
        return SNNTrainer(corrupted).predict(test_set)

    snnwt_curve = {
        rate: mean_accuracy(snnwt_predictions, rate) for rate in rate_list
    }

    # --- SNNwot (count readout; relabeled with its own readout) --------
    relabel_for_counts(snn, train_set)

    def snnwot_predictions(injector: FaultInjector) -> np.ndarray:
        return SNNWithoutTime(snn, injector=injector).predict_dataset(test_set)

    snnwot_curve = {
        rate: mean_accuracy(snnwot_predictions, rate) for rate in rate_list
    }

    def retention(curve, rate: float) -> float:
        clean = curve[rate_list[0]]
        return round(100.0 * curve[rate] / clean, 1) if clean > 0 else 0.0

    rows = [
        {
            "weight_ber": rate,
            "mlp8_acc": round(mlp_curve[rate], 2),
            "snnwt_acc": round(snnwt_curve[rate], 2),
            "snnwot_acc": round(snnwot_curve[rate], 2),
            "mlp8_ret%": retention(mlp_curve, rate),
            "snnwt_ret%": retention(snnwt_curve, rate),
            "snnwot_ret%": retention(snnwot_curve, rate),
        }
        for rate in rate_list
    ]
    return ExperimentResult(
        experiment_id="fault-sweep",
        title="Accuracy vs SRAM weight bit-error rate",
        rows=rows,
        paper_rows=list(PAPER_CLAIMS),
        notes=(
            f"{trials} corruption trial(s)/rate, deterministic in seed={seed}; "
            "ret% columns are accuracy retained relative to the first swept "
            "rate.  Synthetic digits at reduced scale — compare shapes, not "
            "absolute accuracies."
        ),
    )
