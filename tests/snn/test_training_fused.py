"""Equivalence tests for the fused STDP training engine.

The contract under test (see :mod:`repro.snn.training`): the fused
engine's trained weights, thresholds, homeostasis state and labels are
**bit-identical** to the serial per-image / per-timestep oracle
(:meth:`SNNTrainer.train_serial`), for every coder, both STDP modes,
conscience on and off, multiple seeds and epochs, and with fault
injection active.  Also pins the numerical properties the engine's
bit-identity argument rests on, and the PR 2 model-cache keys (a
training speedup must not silently invalidate cached models).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.artifacts import CODE_VERSION, cache_key, coder_signature
from repro.core.config import SNNConfig
from repro.core.errors import TrainingError
from repro.core.rng import child_rng
from repro.datasets.digits import load_digits
from repro.faults import FaultConfig, FaultInjector
from repro.snn.coding import make_coder
from repro.snn.network import SNNTrainer, SpikingNetwork
from repro.snn.training import FusedSTDPEngine, learn_images_serial

# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_digits():
    return load_digits(n_train=90, n_test=40, seed=5, side=12)


def _config(train_set, seed=13, neurons=15, epochs=1, **overrides) -> SNNConfig:
    return SNNConfig(
        n_inputs=train_set.n_inputs,
        n_neurons=neurons,
        n_labels=train_set.n_classes,
        epochs=epochs,
        seed=seed,
        **overrides,
    )


def _build(config: SNNConfig, coder_name=None):
    coder = None
    if coder_name is not None:
        coder = make_coder(
            coder_name,
            duration=config.t_period,
            max_rate_interval=config.min_spike_interval,
        )
    return SpikingNetwork(config, coder=coder)


def _snapshot(network: SpikingNetwork) -> dict:
    homeostasis = network.homeostasis
    return {
        "weights": network.weights.copy(),
        "thresholds": network.population.thresholds.copy(),
        "activity": homeostasis.activity.copy(),
        "elapsed_ms": homeostasis.elapsed_ms,
        "labels": network.neuron_labels.copy(),
    }


def _assert_identical(fused: dict, serial: dict) -> None:
    np.testing.assert_array_equal(fused["weights"], serial["weights"])
    np.testing.assert_array_equal(fused["thresholds"], serial["thresholds"])
    np.testing.assert_array_equal(fused["activity"], serial["activity"])
    assert fused["elapsed_ms"] == serial["elapsed_ms"]
    np.testing.assert_array_equal(fused["labels"], serial["labels"])


def _train_both(
    config,
    tiny_digits,
    coder_name=None,
    conscience=True,
    faults=None,
    calibrate=True,
):
    """Train one network per engine; return (fused, serial) snapshots."""
    train_set, _ = tiny_digits
    snapshots = []
    for engine in ("fused", "serial"):
        network = _build(config, coder_name)
        if faults is not None:
            network.fault_injector = FaultInjector(faults)
        trainer = SNNTrainer(network, conscience=conscience)
        trainer.train(train_set, engine=engine, calibrate=calibrate)
        network.equalize_thresholds()
        trainer.label(train_set)
        snapshots.append(_snapshot(network))
    return snapshots


# ----------------------------------------------------------------------
# Trainer-level equivalence (the acceptance criterion)
# ----------------------------------------------------------------------


class TestTrainerEquivalence:
    @pytest.mark.parametrize("seed", [13, 101])
    @pytest.mark.parametrize("epochs", [1, 2])
    def test_seeds_and_epochs(self, tiny_digits, seed, epochs):
        config = _config(tiny_digits[0], seed=seed, epochs=epochs)
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)

    @pytest.mark.parametrize(
        "coder_name", ["poisson", "gaussian", "time-to-first-spike", "rank-order"]
    )
    def test_every_coder(self, tiny_digits, coder_name):
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits, coder_name=coder_name)
        _assert_identical(fused, serial)

    def test_sampled_stdp_mode(self, tiny_digits):
        config = _config(tiny_digits[0], stdp_mode="sampled")
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)

    def test_conscience_off(self, tiny_digits):
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits, conscience=False)
        _assert_identical(fused, serial)

    def test_fault_injection_rate_zero(self, tiny_digits):
        config = _config(tiny_digits[0])
        faults = FaultConfig(seed=3)
        fused, serial = _train_both(config, tiny_digits, faults=faults)
        _assert_identical(fused, serial)

    def test_fault_injection_active(self, tiny_digits):
        """Spike-stream corruption consumes the injector's cached
        per-stream generator; both engines must consume it in the same
        per-image order."""
        config = _config(tiny_digits[0])
        faults = FaultConfig(
            spike_drop_rate=0.1, spike_spurious_rate=0.05, seed=3
        )
        fused, serial = _train_both(config, tiny_digits, faults=faults)
        _assert_identical(fused, serial)

    @pytest.mark.parametrize("chunk", [1, 7, 500, 4096])
    def test_step_chunk_edges(self, tiny_digits, monkeypatch, chunk):
        """The filter state carries exactly across chunk boundaries: one
        step per chunk, an odd length, and one chunk holding the whole
        500-step presentation (exactly, and with room to spare)."""
        import repro.snn.training as training_mod

        monkeypatch.setattr(training_mod, "STEP_CHUNK", chunk)
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)

    def test_presentations_that_never_fire(self, tiny_digits):
        """Every chunk is scanned and no neuron fires: the winner is -1
        and the homeostasis clock still advances by the full duration."""
        train_set, _ = tiny_digits
        config = _config(train_set, initial_threshold=1e9)
        fused, serial = _train_both(config, tiny_digits, calibrate=False)
        _assert_identical(fused, serial)

        network = _build(config)
        winners = FusedSTDPEngine(network).learn_images(
            train_set.images[:12], rng=child_rng(config.seed, "stream")
        )
        np.testing.assert_array_equal(winners, np.full(12, -1))
        homeostasis = network.homeostasis
        advanced = (
            homeostasis.epochs_completed * homeostasis.epoch_ms
            + homeostasis.elapsed_ms
        )
        assert advanced == 12 * config.t_period

    def test_missing_csr_kernel_takes_gated_loop(self, tiny_digits, monkeypatch):
        """With lfilter importable but no CSR kernel, presentations run
        the gated loop (the filter is never called) and labeling runs
        on the grid; both stay bit-identical."""
        import repro.snn.batched as batched_mod
        import repro.snn.training as training_mod

        def filter_must_not_run(*args, **kwargs):
            raise AssertionError("filter scan ran without the CSR kernel")

        monkeypatch.setattr(batched_mod, "csr_matvecs_kernel", lambda: None)
        monkeypatch.setattr(training_mod, "_lfilter", filter_must_not_run)
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)

    def test_rejects_unknown_engine(self, tiny_digits):
        config = _config(tiny_digits[0])
        trainer = SNNTrainer(_build(config))
        with pytest.raises(TrainingError):
            trainer.train(tiny_digits[0], engine="warp")


# ----------------------------------------------------------------------
# Engine-level equivalence (shared-stream contract)
# ----------------------------------------------------------------------


class TestEngineStream:
    def test_windowed_calls_match_one_serial_pass(self, tiny_digits):
        """Splitting learn_images into windows (the retention study's
        probe pattern) must consume the shared stream exactly like one
        serial pass over the same images."""
        train_set, _ = tiny_digits
        config = _config(train_set)
        serial_net = _build(config)
        SNNTrainer(serial_net).train(train_set, engine="serial")
        serial_rng = child_rng(config.seed, "post-train")
        fused_net = _build(config)
        trainer = SNNTrainer(fused_net)
        # Reproduce train()'s pre-steps, then drive the engine in
        # uneven windows over the same shuffled order.
        sample = train_set.images[: min(len(train_set), 500)]
        fused_net.initialize_prototype_weights(
            sample, rng=child_rng(config.seed, "snn-prototypes")
        )
        fused_net.calibrate_thresholds(sample[:200])
        rng = child_rng(config.seed, "snn-train-spikes")
        order = child_rng(config.seed, "snn-train-order-0").permutation(
            len(train_set)
        )
        engine = FusedSTDPEngine(fused_net)
        images = train_set.images[order]
        for start, stop in ((0, 7), (7, 40), (40, 41), (41, len(images))):
            engine.learn_images(images[start:stop], rng)
        np.testing.assert_array_equal(fused_net.weights, serial_net.weights)
        np.testing.assert_array_equal(
            fused_net.population.thresholds, serial_net.population.thresholds
        )
        del serial_rng, trainer

    def test_winners_match_serial_helper(self, tiny_digits):
        train_set, _ = tiny_digits
        config = _config(train_set)
        fused_net = _build(config)
        serial_net = _build(config)
        for net in (fused_net, serial_net):
            net.initialize_prototype_weights(
                train_set.images, rng=child_rng(config.seed, "snn-prototypes")
            )
            net.calibrate_thresholds(train_set.images[:60])
        fused_winners = FusedSTDPEngine(fused_net).learn_images(
            train_set.images, rng=child_rng(config.seed, "stream")
        )
        serial_winners = learn_images_serial(
            serial_net, train_set.images, rng=child_rng(config.seed, "stream")
        )
        np.testing.assert_array_equal(fused_winners, np.asarray(serial_winners))
        np.testing.assert_array_equal(fused_net.weights, serial_net.weights)

    def test_scipy_free_fallback_path(self, tiny_digits, monkeypatch):
        """With the lfilter scan disabled the gated Python loop must
        still be bit-identical (the path SciPy-free installs run)."""
        import repro.snn.training as training_mod

        monkeypatch.setattr(training_mod, "_lfilter", None)
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)

    def test_out_of_range_inputs_take_the_serial_oracle(self, tiny_digits):
        """An input index outside the weights never reaches the
        unchecked CSR kernel: the presentation runs on the serial
        oracle, which raises (or wraps a negative index) exactly as
        NumPy indexing does."""
        from repro.snn.coding import SpikeTrain

        config = _config(tiny_digits[0])
        duration = float(config.t_period)
        times = np.linspace(0.0, duration - 1.0, 40)
        past_end = SpikeTrain(
            times, np.full(40, config.n_inputs), config.n_inputs, duration
        )
        with pytest.raises(IndexError):
            FusedSTDPEngine(_build(config)).present_learn(past_end)

        negative = SpikeTrain(
            times, np.full(40, -1), config.n_inputs, duration
        )
        fused_net = _build(config)
        serial_net = _build(config)
        fused_net.population.thresholds[:] = 100.0
        serial_net.population.thresholds[:] = 100.0
        winner = FusedSTDPEngine(fused_net).present_learn(negative)
        reference = serial_net.present(
            negative, learn=True, stop_after_first_spike=True
        )
        assert winner == reference.winner >= 0
        np.testing.assert_array_equal(fused_net.weights, serial_net.weights)

    def test_minimum_width_network(self, tiny_digits):
        """The smallest config the ranges allow (n_neurons = 2) still
        hits the count-class scatter's general branch."""
        train_set, _ = tiny_digits
        config = _config(train_set, neurons=2)
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)


# ----------------------------------------------------------------------
# Numerical properties the bit-identity argument rests on
# ----------------------------------------------------------------------


class TestNumericalProperties:
    def test_lfilter_matches_serial_leak_recurrence(self):
        """scipy.signal.lfilter([1], [1, -d]) must reproduce the serial
        v[t] = (v[t-1] * d) + C[t] recurrence bit for bit (DF2T's
        round(C + round(d*v)) equals it by IEEE commutativity)."""
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(7)
        for trial in range(50):
            d = float(rng.uniform(0.5, 1.0))
            c = rng.uniform(-50, 300, size=(40, 6))
            c *= 10.0 ** rng.integers(-3, 4, size=c.shape)
            expected = np.empty_like(c)
            v = np.zeros(c.shape[1])
            for t in range(c.shape[0]):
                v = (v * d) + c[t]
                expected[t] = v
            got = scipy_signal.lfilter([1.0], [1.0, -d], c, axis=0)
            np.testing.assert_array_equal(got, expected)
            # Chunked, carrying the filter state (zi in, zf out) from
            # one chunk into the next, as the engine's scan does.
            for chunk in (1, 3, 7):
                state = np.zeros((1, c.shape[1]))
                parts = []
                for t0 in range(0, c.shape[0], chunk):
                    part, state = scipy_signal.lfilter(
                        [1.0], [1.0, -d], c[t0 : t0 + chunk], axis=0, zi=state
                    )
                    parts.append(part)
                np.testing.assert_array_equal(np.concatenate(parts), expected)

    def test_add_reduce_axis1_is_left_fold(self):
        """np.add.reduce(rows, axis=1) on (m, c, N) float blocks must be
        a strict sequential row fold for N >= 2 — the property the
        count-class contribution scatter relies on."""
        rng = np.random.default_rng(11)
        for c in (2, 3, 5, 9, 17):
            for n in (2, 3, 15):
                rows = rng.uniform(0, 255, size=(4, c, n))
                rows *= 10.0 ** rng.integers(-6, 7, size=rows.shape)
                expected = np.zeros((4, n))
                for k in range(c):
                    expected = expected + rows[:, k, :]
                got = np.add.reduce(rows, axis=1)
                np.testing.assert_array_equal(got, expected)

    def test_csr_kernel_is_a_strict_left_fold(self):
        """Each row of the CSR kernel shared by the readout scan and the
        engine must be the strict left fold ((0.0 + m0*w0) + m1*w1) + ...
        in spike order, each product rounded before its add.  A SciPy
        build that contracted the kernel's ``y += a*x`` into a fused
        multiply-add would silently change rank-order results in both;
        the modulated data below is checked to tell the two apart."""
        from fractions import Fraction

        from repro.snn.batched import csr_matvecs_kernel

        csr_matvecs = csr_matvecs_kernel()
        if csr_matvecs is None:
            pytest.skip("SciPy's CSR kernel is unavailable")
        rng = np.random.default_rng(23)
        n_inputs, n_neurons = 9, 6
        weights_t = rng.uniform(0, 255, size=(n_inputs, n_neurons))
        weights_t *= 10.0 ** rng.integers(-4, 5, size=weights_t.shape)
        # One row per step: empty cells, and inputs repeated in a step.
        cells = [[], [3], [2, 5, 2, 2], [], list(range(n_inputs)), [4, 4], []]
        indptr = np.cumsum([0] + [len(cell) for cell in cells])
        indices = np.array([i for cell in cells for i in cell], dtype=np.int64)
        fused_differs = False
        for modulation in (
            np.ones(indices.size),
            rng.uniform(0.05, 1.0, size=indices.size),
        ):
            got = np.zeros((len(cells), n_neurons))
            csr_matvecs(
                len(cells),
                n_inputs,
                n_neurons,
                indptr,
                indices,
                modulation,
                weights_t.reshape(-1),
                got.reshape(-1),
            )
            for row in range(len(cells)):
                expected = np.zeros(n_neurons)
                fused = np.zeros(n_neurons)
                for j in range(indptr[row], indptr[row + 1]):
                    product = modulation[j] * weights_t[indices[j]]
                    expected = expected + product
                    fused = np.array(
                        [
                            float(Fraction(modulation[j]) * Fraction(w) + Fraction(y))
                            for w, y in zip(weights_t[indices[j]], fused)
                        ]
                    )
                np.testing.assert_array_equal(got[row], expected)
                fused_differs |= not np.array_equal(fused, expected)
        assert fused_differs

    def test_supported_always_true_with_scipy(self, tiny_digits):
        pytest.importorskip("scipy.signal")
        config = _config(tiny_digits[0])
        network = _build(config)
        engine = FusedSTDPEngine(network)
        # Even with negative weights the filter path stays exact.
        network.weights[0, 0] = -1.0
        assert engine.supported()


# ----------------------------------------------------------------------
# Cache-key stability (PR 2 keys must survive the engine swap)
# ----------------------------------------------------------------------


class TestCacheKeyStability:
    #: Keys recorded on the PR 2 tree; the fused engine trains
    #: bit-identical models, so neither the code-version salt nor any
    #: key component may change.
    PINNED_SNN_KEY = "63aa5a9ae746fc0f426d1971fb691d9b668312de8dd3751395d71d79095af9db"
    PINNED_MLP_KEY = "aef83cfc4bd2b507ae82384895a8c920d6e125665e3010d357779adb305bfad0"

    def test_code_version_unchanged(self):
        assert CODE_VERSION == "pr2-batched-1"

    def test_snn_cache_key_pinned(self):
        train, _ = load_digits(n_train=80, n_test=40, seed=5)
        key = cache_key(
            "snn",
            SNNConfig(epochs=1, seed=11).with_neurons(12),
            train,
            {"epochs": 2, "coder": coder_signature(None), "recipe": "stdp-v1"},
        )
        assert key == self.PINNED_SNN_KEY

    def test_mlp_cache_key_pinned(self):
        from repro.core.config import mnist_mlp_config

        train, _ = load_digits(n_train=80, n_test=40, seed=5)
        key = cache_key(
            "mlp",
            mnist_mlp_config(),
            train,
            {"epochs": 40, "batch_size": 16, "recipe": "bp-v1"},
        )
        assert key == self.PINNED_MLP_KEY
