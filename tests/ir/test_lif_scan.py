"""The LIF readout scan against the batched grid it must equal bit for bit.

:func:`repro.ir.backends.lif_scan.readout_winners` runs the chunked
scan when :func:`~repro.ir.backends.lif_scan.scan_refusal` clears the
trains and :func:`repro.snn.batched.batch_winners` otherwise.  These
tests drive both on small randomized networks and on rows whose first
crossing lands on every step (so on both edges of every chunk), send
one case per refusal reason down the grid (a recurrence kernel that
fails its probe included), check that a writable network's in-place
edits reach the next readout, and check that :meth:`SNNTrainer.label`,
which reads winners through the dispatch, does not depend on its block
size.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ir.backends.lif_scan as lif_scan
import repro.snn.batched as batched
from repro.core.config import SNNConfig
from repro.core.errors import SimulationError
from repro.datasets.digits import load_digits
from repro.ir.backends.lif_scan import (
    ScanOperands,
    readout_winners,
    scan_refusal,
    scan_winners,
)
from repro.snn.batched import SpikeTrainBatch, batch_winners, present_batch
from repro.snn.coding import SpikeTrain
from repro.snn.network import SNNTrainer, SpikingNetwork

pytestmark = pytest.mark.skipif(
    batched.leak_scan_kernel() is None,
    reason="no CSR kernel for the LIF scan; the grid is the only readout",
)

N_INPUTS = 16

#: Spikes per train, cycled over the rows: the empty and the sparse
#: trains never reach a threshold, the dense ones fire.
SPIKES_PER_ROW = (0, 3, 60, 150, 40)


def _network(seed: int) -> SpikingNetwork:
    config = SNNConfig(
        n_inputs=N_INPUTS, n_neurons=5, n_labels=3, t_period=80, seed=seed
    )
    network = SpikingNetwork(config)
    rng = np.random.default_rng(seed)
    network.weights[:] = rng.uniform(0.0, 40.0, size=network.weights.shape)
    network.population.thresholds[:] = rng.uniform(300.0, 900.0, size=5)
    return network


def _trains(network, n_rows: int, seed: int, modulated: bool = False):
    rng = np.random.default_rng(seed + 1000)
    duration = float(network.config.t_period)
    trains = []
    for row in range(n_rows):
        n_spikes = SPIKES_PER_ROW[row % len(SPIKES_PER_ROW)]
        trains.append(
            SpikeTrain(
                times=np.sort(rng.uniform(0.0, duration, n_spikes)),
                inputs=rng.integers(0, N_INPUTS, n_spikes),
                n_inputs=N_INPUTS,
                duration=duration,
                modulation=(
                    rng.uniform(0.1, 1.0, n_spikes) if modulated else None
                ),
            )
        )
    return trains


class TestScanMatchesGrid:
    @pytest.mark.parametrize("modulated", [False, True])
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 130])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_networks(self, seed, n_rows, modulated):
        network = _network(seed)
        trains = _trains(network, n_rows, seed, modulated)
        operands = ScanOperands.of(network)
        assert scan_refusal(network, trains, operands) is None
        expected = batch_winners(network, trains)
        np.testing.assert_array_equal(
            scan_winners(network, trains, operands), expected
        )
        np.testing.assert_array_equal(readout_winners(network, trains), expected)
        if n_rows == 130:
            fired = present_batch(
                network, SpikeTrainBatch.from_trains(trains), early_exit=True
            ).winners >= 0
            assert fired.any() and not fired.all()


#: Steps of the chunk-edge presentation: past two chunks of any length
#: the scan picks.
EDGE_STEPS = 140


def _edge_network(seed: int) -> SpikingNetwork:
    """Input 0 kicks every neuron past its threshold; the rest barely move it."""
    config = SNNConfig(
        n_inputs=N_INPUTS,
        n_neurons=5,
        n_labels=3,
        t_period=EDGE_STEPS,
        seed=seed,
    )
    network = SpikingNetwork(config)
    rng = np.random.default_rng(seed)
    network.weights[:] = rng.uniform(0.0, 0.2, size=network.weights.shape)
    network.weights[:, 0] = rng.uniform(100.0, 200.0, size=5)
    network.population.thresholds[:] = rng.uniform(60.0, 99.0, size=5)
    return network


def _edge_trains(seed: int):
    """One row first crossing at each step, rows that never fire, empty rows.

    At most one background spike per step, each under 0.2, can never
    lift a potential to a threshold (60 or more), so a row first
    crosses at the step of its kick spike on input 0, and a row without
    one never fires.
    """
    rng = np.random.default_rng(seed + 2000)
    duration = float(EDGE_STEPS)

    def train(kick):
        n_background = int(rng.integers(0, EDGE_STEPS))
        steps = rng.choice(EDGE_STEPS, n_background, replace=False)
        times = steps + rng.uniform(0.0, 1.0, n_background)
        inputs = rng.integers(1, N_INPUTS, n_background)
        if kick is not None:
            times = np.append(times, kick + rng.uniform(0.0, 1.0))
            inputs = np.append(inputs, 0)
        modulation = rng.uniform(0.5, 1.0, times.size)
        modulation[inputs == 0] = 1.0
        return SpikeTrain(times, inputs, N_INPUTS, duration, modulation)

    trains = [train(kick) for kick in range(EDGE_STEPS)]
    trains += [train(None) for _ in range(6)]
    empty = SpikeTrain(
        np.empty(0), np.empty(0, dtype=np.int64), N_INPUTS, duration
    )
    trains += [empty] * 4
    return trains


class TestChunkEdges:
    @pytest.mark.parametrize("n_rows", [1, 2, 16, 75, 130, 150])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_crossing_on_every_step(self, seed, n_rows):
        """Rows whose first crossing lands on every step, so on the first
        and last step of every chunk whatever the chunk length, plus
        rows that never fire and empty trains, against the grid."""
        network = _edge_network(seed)
        trains = _edge_trains(seed)
        pick = np.random.default_rng(seed).permutation(len(trains))[:n_rows]
        batch = [trains[i] for i in pick]
        operands = ScanOperands.of(network)
        assert scan_refusal(network, batch, operands) is None
        expected = batch_winners(network, batch)
        np.testing.assert_array_equal(
            scan_winners(network, batch, operands), expected
        )
        np.testing.assert_array_equal(readout_winners(network, batch), expected)
        if n_rows == len(trains):
            result = present_batch(
                network, SpikeTrainBatch.from_trains(batch), early_exit=True
            )
            kicked = pick < EDGE_STEPS
            np.testing.assert_array_equal(
                result.winner_times[kicked], pick[kicked]
            )
            assert np.isinf(result.winner_times[~kicked]).all()


class TestLeakScanProbe:
    def test_probe_verdict_follows_the_kernel(self, monkeypatch):
        """SciPy's kernel passes the probe; one that reads a copy of
        ``x`` (each row then scans from the *unscanned* row before it)
        is refused; handing back SciPy's kernel probes it again."""
        real = batched.csr_matvecs_kernel()
        assert batched.leak_scan_kernel() is real
        copying = _copying_kernel()
        monkeypatch.setattr(batched, "csr_matvecs_kernel", lambda: copying)
        assert batched.leak_scan_kernel() is None
        monkeypatch.undo()
        assert batched.leak_scan_kernel() is real


class TestOperandsPerNetwork:
    def test_writable_network_edits_reach_the_readout(self):
        """Without kept operands each readout reads the network afresh:
        in-place weight edits between two readouts change the winners
        exactly as they change the grid's."""
        network = _network(3)
        trains = _trains(network, 20, seed=3)
        before = readout_winners(network, trains)
        np.testing.assert_array_equal(before, batch_winners(network, trains))
        fired = before[before >= 0]
        network.weights[np.bincount(fired).argmax()] = 0.0
        after = readout_winners(network, trains)
        np.testing.assert_array_equal(after, batch_winners(network, trains))
        assert not np.array_equal(after, before)


def _negative_weight(network, trains, monkeypatch):
    network.weights[2, 5] = -1.0


def _zero_threshold(network, trains, monkeypatch):
    network.population.thresholds[1] = 0.0


def _mixed_durations(network, trains, monkeypatch):
    last = trains[-1]
    trains[-1] = SpikeTrain(
        last.times, last.inputs, last.n_inputs, last.duration + 10.0
    )


def _negative_modulation(network, trains, monkeypatch):
    dense = trains[3]
    modulation = np.ones(dense.n_spikes)
    modulation[0] = -0.5
    trains[3] = SpikeTrain(
        dense.times, dense.inputs, dense.n_inputs, dense.duration, modulation
    )


def _wider_weights(network, trains, monkeypatch):
    extra = np.full((network.config.n_neurons, 2), 7.0)
    network.weights = np.hstack([network.weights, extra])


def _kernel_missing(network, trains, monkeypatch):
    monkeypatch.setattr(batched, "csr_matvecs_kernel", lambda: None)


def _copying_kernel():
    """SciPy's CSR kernel behind a wrapper that copies ``x`` first."""
    real = batched.csr_matvecs_kernel()

    def kernel(n_rows, n_cols, n_vecs, indptr, indices, data, x, y):
        real(n_rows, n_cols, n_vecs, indptr, indices, data, np.array(x), y)

    return kernel


def _kernel_copies_x(network, trains, monkeypatch):
    kernel = _copying_kernel()
    monkeypatch.setattr(batched, "csr_matvecs_kernel", lambda: kernel)


def _input_index(index):
    """Point one spike of a dense train at column ``index``."""

    def corrupt(network, trains, monkeypatch):
        dense = trains[3]
        inputs = dense.inputs.copy()
        inputs[0] = index
        trains[3] = SpikeTrain(
            dense.times, inputs, dense.n_inputs, dense.duration,
            dense.modulation,
        )

    return corrupt


REFUSALS = {
    "negative synaptic weights": _negative_weight,
    "non-positive firing thresholds": _zero_threshold,
    "trains with mixed duration/n_inputs": _mixed_durations,
    "negative spike modulation": _negative_modulation,
    "train width does not match the weight matrix": _wider_weights,
    "scipy.sparse CSR kernel unavailable": _kernel_missing,
    "CSR kernel fails the in-place recurrence probe": _kernel_copies_x,
    "spike input outside the weight matrix (index n_inputs)": _input_index(
        N_INPUTS
    ),
    "spike input outside the weight matrix (index -1)": _input_index(-1),
}


class TestRefusalsTakeTheGrid:
    @pytest.mark.parametrize("reason", sorted(REFUSALS))
    def test_refused_readout_matches_grid(self, reason, monkeypatch):
        network = _network(4)
        trains = _trains(network, 9, seed=4)
        REFUSALS[reason](network, trains, monkeypatch)
        assert scan_refusal(network, trains) == reason.split(" (")[0]

        def scan_must_not_run(*args, **kwargs):
            raise AssertionError("the scan ran on refused trains")

        monkeypatch.setattr(lif_scan, "scan_winners", scan_must_not_run)
        # The grid cannot batch mixed trains either and says so; its
        # NumPy indexing raises for a column past the matrix (and wraps
        # a negative one, which the readout then equals).
        raised = {
            "trains with mixed duration/n_inputs": SimulationError,
            "spike input outside the weight matrix (index n_inputs)": IndexError,
        }.get(reason)
        if raised is not None:
            with pytest.raises(raised) as grid:
                batch_winners(network, trains)
            with pytest.raises(raised) as readout:
                readout_winners(network, trains)
            assert str(readout.value) == str(grid.value)
            return
        np.testing.assert_array_equal(
            readout_winners(network, trains), batch_winners(network, trains)
        )


@pytest.fixture(scope="module")
def labeled_setup():
    train_set, _ = load_digits(n_train=90, n_test=40, seed=5, side=12)
    config = SNNConfig(
        n_inputs=train_set.n_inputs,
        n_neurons=15,
        n_labels=train_set.n_classes,
        epochs=1,
        seed=13,
    )
    network = SpikingNetwork(config)
    trainer = SNNTrainer(network)
    trainer.train(train_set)
    network.equalize_thresholds()
    return trainer, train_set


class TestLabelReadout:
    def _label(self, trainer, train_set, batch_size):
        labeler = trainer.label(train_set, batch_size=batch_size)
        return (
            labeler.labels(),
            labeler.win_counts.copy(),
            labeler.label_presentations.copy(),
        )

    def test_block_size_invariant_and_equal_to_grid(
        self, labeled_setup, monkeypatch
    ):
        trainer, train_set = labeled_setup
        calls = []
        real_scan = lif_scan.scan_winners

        def counting_scan(network, trains, *args, **kwargs):
            calls.append(len(trains))
            return real_scan(network, trains, *args, **kwargs)

        monkeypatch.setattr(lif_scan, "scan_winners", counting_scan)
        results = {}
        for batch_size in (1, 7, 128):
            calls.clear()
            results[batch_size] = self._label(trainer, train_set, batch_size)
            # Every block ran on the scan, none bigger than batch_size.
            assert sum(calls) == len(train_set)
            assert max(calls) <= batch_size
        calls.clear()
        monkeypatch.setattr(batched, "csr_matvecs_kernel", lambda: None)
        grid = self._label(trainer, train_set, 128)
        assert not calls
        for got in results.values():
            for a, b in zip(got, grid):
                np.testing.assert_array_equal(a, b)

    def test_rejects_non_positive_batch_size(self, labeled_setup):
        trainer, train_set = labeled_setup
        with pytest.raises(SimulationError):
            trainer.label(train_set, batch_size=0)
