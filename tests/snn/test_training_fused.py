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


def _gated_loop_only(monkeypatch) -> list:
    """Count gated-loop presentations; fail if the recurrence scan runs."""
    calls = []
    gated = FusedSTDPEngine._gated_scan

    def counting(self, *args, **kwargs):
        calls.append(1)
        return gated(self, *args, **kwargs)

    def must_not_run(self, *args, **kwargs):
        raise AssertionError("the recurrence scan ran without its kernel")

    monkeypatch.setattr(FusedSTDPEngine, "_gated_scan", counting)
    monkeypatch.setattr(FusedSTDPEngine, "_recurrence_scan", must_not_run)
    return calls


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
        """The carried potential crosses chunk boundaries exactly: one
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
        """Without the CSR kernel, presentations run the gated loop (the
        recurrence scan never runs) and labeling runs on the grid; both
        stay bit-identical."""
        import repro.snn.batched as batched_mod

        monkeypatch.setattr(batched_mod, "csr_matvecs_kernel", lambda: None)
        gated = _gated_loop_only(monkeypatch)
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)
        assert gated

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
        """With no recurrence kernel (no SciPy, or a kernel that fails
        the probe) the gated Python loop runs and must still be
        bit-identical (the path SciPy-free installs run)."""
        import repro.snn.batched as batched_mod

        monkeypatch.setattr(batched_mod, "leak_scan_kernel", lambda: None)
        gated = _gated_loop_only(monkeypatch)
        config = _config(tiny_digits[0])
        fused, serial = _train_both(config, tiny_digits)
        _assert_identical(fused, serial)
        assert gated

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
    def test_leak_scan_matches_serial_leak_recurrence(self):
        """batched.leak_scan must reproduce the serial
        v[t] = (v[t-1] * d) + C[t] recurrence bit for bit on signed,
        multi-scale drive, in every block, from the potential carried
        in row 0 (the kernel's round(C + round(d*v)) equals it by IEEE
        commutativity)."""
        from repro.snn import batched

        kernel = batched.leak_scan_kernel()
        if kernel is None:
            pytest.skip("no CSR kernel for the in-place recurrence")
        rng = np.random.default_rng(7)
        for trial in range(50):
            d = float(rng.uniform(0.0, 1.0))
            n_blocks = int(rng.integers(1, 5))
            c = rng.uniform(-50, 300, size=(n_blocks, 40, 6))
            c *= 10.0 ** rng.integers(-3, 4, size=c.shape)
            carried_in = rng.uniform(-50, 300, size=(n_blocks, 6))
            expected = np.empty_like(c)
            v = carried_in.copy()
            for t in range(c.shape[1]):
                v = (v * d) + c[:, t]
                expected[:, t] = v
            blocks = np.concatenate([carried_in[:, None], c], axis=1)
            batched.leak_scan(kernel, blocks, d)
            np.testing.assert_array_equal(blocks[:, 0], carried_in)
            np.testing.assert_array_equal(blocks[:, 1:], expected)
            # Chunked, carrying each chunk's last row into the next
            # chunk's row 0, as both scans do.
            for chunk in (1, 3, 7):
                carried = carried_in
                parts = []
                for t0 in range(0, c.shape[1], chunk):
                    blocks = np.concatenate(
                        [carried[:, None], c[:, t0 : t0 + chunk]], axis=1
                    )
                    batched.leak_scan(kernel, blocks, d)
                    parts.append(blocks[:, 1:])
                    carried = blocks[:, -1]
                np.testing.assert_array_equal(
                    np.concatenate(parts, axis=1), expected
                )

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
        from repro.snn import batched

        if batched.leak_scan_kernel() is None:
            pytest.skip("no CSR kernel for the in-place recurrence")
        config = _config(tiny_digits[0])
        network = _build(config)
        engine = FusedSTDPEngine(network)
        # Even with negative weights the recurrence path stays exact.
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


# ----------------------------------------------------------------------
# No scipy.signal: importing repro loads none, and neither does training
# ----------------------------------------------------------------------


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this ``repro``; its stdout."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


class TestLazyFilterImport:
    @pytest.mark.parametrize(
        "module",
        ["repro", "repro.cli", "repro.serve.workers", "repro.analysis.report"],
    )
    def test_import_loads_no_scipy_signal(self, module):
        """A fresh interpreter importing ``module`` loads neither
        ``scipy.signal`` nor the ``scipy.stats`` it pulls in."""
        probe = (
            f"import sys, {module}; "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
        )
        assert _fresh_python(probe) == "[]"

    def test_fit_loads_no_scipy_signal(self):
        """A fresh ``SNNTrainer(...).fit`` loads no ``scipy.signal`` and,
        wherever the kernel passes its probe, trains on the in-place
        recurrence."""
        probe = "\n".join(
            [
                "import sys",
                "from repro.core.config import SNNConfig",
                "from repro.datasets.digits import load_digits",
                "from repro.snn import batched",
                "from repro.snn.network import SNNTrainer, SpikingNetwork",
                "from repro.snn.training import FusedSTDPEngine",
                "calls = []",
                "scan = FusedSTDPEngine._recurrence_scan",
                "def counting(self, *args):",
                "    calls.append(1)",
                "    return scan(self, *args)",
                "FusedSTDPEngine._recurrence_scan = counting",
                "train, _ = load_digits(n_train=60, n_test=10, seed=5, side=12)",
                "config = SNNConfig(n_inputs=train.n_inputs, n_neurons=10,",
                "                   n_labels=train.n_classes, epochs=1, seed=13)",
                "SNNTrainer(SpikingNetwork(config)).fit(train)",
                "print('scipy.signal' in sys.modules, bool(calls),",
                "      batched.leak_scan_kernel() is not None)",
            ]
        )
        loaded, scanned, has_kernel = _fresh_python(probe).split()
        assert loaded == "False"
        assert scanned == has_kernel
