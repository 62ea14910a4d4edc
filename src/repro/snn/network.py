"""The single-layer winner-takes-all spiking network (paper Section 2.2).

Topology: one layer of LIF neurons, each connected to all inputs by
excitatory synapses; lateral inhibitory connections among neurons
produce winner-takes-all dynamics (emulated, as in the paper's
hardware, by the firing neuron inhibiting all others).  The readout
"considers the first neuron which spikes as the winner", which the
paper notes achieves some of the best machine-learning results with
SNNs and maps densely to hardware.

Simulation runs on a 1 ms grid — the same granularity as the paper's
SNNwt hardware, where one clock cycle models one millisecond — using
the analytical exponential leak between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import SNNConfig
from ..core.errors import SimulationError, TrainingError
from ..core.metrics import EvaluationResult, evaluate
from ..core.rng import SeedLike, child_rng, make_rng
from ..core.timing import phase
from ..datasets.base import Dataset
from .batched import (
    DEFAULT_BATCH_SIZE,
    TEST_SPIKE_STREAM,
    encode_shared,
    gather_contribution,
    predict_batch,
)
from .coding import PoissonCoder, SpikeCoder, SpikeTrain
from .homeostasis import HomeostasisController
from .labeling import NeuronLabeler
from .lif import LIFParameters, LIFPopulation
from .stdp import STDPRule


@dataclass
class PresentationResult:
    """Outcome of presenting one image to the network."""

    winner: int                      # first neuron to fire, or -1
    winner_time: float               # firing time in ms, or inf
    output_spikes: List[Tuple[float, int]] = field(default_factory=list)
    final_potentials: Optional[np.ndarray] = None

    @property
    def n_output_spikes(self) -> int:
        return len(self.output_spikes)

    def readout(self) -> int:
        """The paper's readout: first spiker wins; if no neuron fired,
        fall back to the highest final potential (the potential is
        "highly correlated to the number of output spikes",
        Section 4.2.2)."""
        if self.winner >= 0:
            return self.winner
        if self.final_potentials is None or not self.final_potentials.size:
            return -1
        return int(np.argmax(self.final_potentials))


class SpikingNetwork:
    """Single-layer LIF network with WTA inhibition, STDP and homeostasis.

    Weights are float in [0, w_max] (trained with the +-1 constant-step
    STDP rule, so they stay on the 8-bit integer grid the hardware
    stores).  ``neuron_labels`` is filled by the labeling pass and maps
    each neuron to its class (or -1 if it never won).
    """

    def __init__(self, config: SNNConfig, coder: Optional[SpikeCoder] = None):
        config.validate()
        self.config = config
        self.coder = coder or PoissonCoder(
            duration=config.t_period, max_rate_interval=config.min_spike_interval
        )
        self.lif_parameters = LIFParameters(
            t_leak=config.t_leak,
            t_inhibit=config.t_inhibit,
            t_refrac=config.t_refrac,
        )
        self.population = LIFPopulation(
            config.n_neurons, self.lif_parameters, config.initial_threshold
        )
        self.stdp = STDPRule(
            t_ltp=config.t_ltp,
            ltp_step=config.stdp_ltp,
            ltd_step=config.stdp_ltd,
            w_min=1.0,  # a zero row could never reach threshold again
            w_max=float(config.w_max),
            soft=config.stdp_soft,
            beta=config.stdp_beta,
        )
        self.homeostasis = HomeostasisController(
            n_neurons=config.n_neurons,
            epoch_ms=config.homeo_epoch,
            activity_threshold=config.homeo_threshold,
            rate=config.homeo_rate,
        )
        rng = child_rng(config.seed, "snn-init")
        # Mid-range random initial weights, as in memristive-SNN practice.
        self.weights = rng.uniform(
            0.3 * config.w_max, 0.8 * config.w_max,
            size=(config.n_neurons, config.n_inputs),
        )
        self.neuron_labels: Optional[np.ndarray] = None
        #: Optional :class:`repro.faults.FaultInjector` corrupting the
        #: input spike fabric per presentation (set by
        #: :func:`repro.faults.apply.corrupt_spiking_network`; ``None``
        #: keeps the encode->present path untouched).
        self.fault_injector = None

    @property
    def thresholds(self) -> np.ndarray:
        return self.population.thresholds

    def present(
        self,
        train: SpikeTrain,
        learn: bool = False,
        stop_after_first_spike: bool = False,
        ltp_probabilities: Optional[np.ndarray] = None,
    ) -> PresentationResult:
        """Simulate one image presentation on the 1 ms grid.

        With ``learn=True`` the STDP rule updates the firing neuron's
        weights at each output spike and homeostasis activity is
        recorded; the homeostasis clock advances by the presentation
        duration at the end.

        ``stop_after_first_spike=True`` ends the presentation at the
        first output spike — the operating point the paper's
        homeostasis converges to ("overall, only one neuron can fire
        for a given input image, making the readout both trivial and
        fast"), which the trainer enforces directly so that scaled-down
        runs start at that equilibrium instead of spending tens of
        thousands of presentations finding it.

        ``ltp_probabilities`` (per-input probability of a spike inside
        the LTP window) switches learning to the variance-reduced
        expected-STDP update; see :meth:`STDPRule.expected_apply`.
        """
        population = self.population
        population.reset_for_presentation()
        decay = self.lif_parameters.decay_factor(1.0)
        last_pre = np.full(self.config.n_inputs, -np.inf)
        result = PresentationResult(winner=-1, winner_time=np.inf)
        for t, (inputs, modulation) in enumerate(train.steps_weighted(1.0)):
            active = population.active_mask(float(t))
            population.potentials[active] *= decay
            if inputs.size:
                last_pre[inputs] = float(t)
                # Shared sequential-accumulation primitive: guarantees
                # the batched engine (repro.snn.batched) adds the same
                # spike contributions in the same order, bit for bit.
                contribution = gather_contribution(self.weights, inputs, modulation)
                population.potentials[active] += contribution[active]
            fired = population.fired(active)
            if fired.size:
                # If several cross threshold in the same ms, the one with
                # the largest overshoot fires first (sub-ms resolution).
                overshoot = population.potentials[fired] - population.thresholds[fired]
                neuron = int(fired[int(np.argmax(overshoot))])
                if result.winner < 0:
                    result.winner = neuron
                    result.winner_time = float(t)
                result.output_spikes.append((float(t), neuron))
                if learn:
                    if ltp_probabilities is not None:
                        self.stdp.expected_apply(
                            self.weights[neuron], ltp_probabilities
                        )
                    else:
                        self.stdp.apply(self.weights[neuron], last_pre, float(t))
                    self.homeostasis.record_firing(neuron)
                population.fire(neuron, float(t))
                if stop_after_first_spike:
                    break
        result.final_potentials = population.potentials.copy()
        if learn:
            self.homeostasis.advance(train.duration, population.thresholds)
        return result

    def ltp_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-pixel probability of a spike inside the LTP window.

        For rate coding with mean inter-spike interval I(p), the most
        recent spike falls within the t_ltp window before a (late)
        firing time with probability q = 1 - exp(-t_ltp / I(p)).
        """
        from .coding import mean_interval  # local import avoids a cycle

        intervals = mean_interval(
            np.asarray(image).ravel(), self.config.min_spike_interval
        )
        return 1.0 - np.exp(-self.config.t_ltp / intervals)

    def present_image(
        self,
        image: np.ndarray,
        learn: bool = False,
        rng: SeedLike = None,
        stop_after_first_spike: bool = False,
    ) -> PresentationResult:
        """Encode an 8-bit image with the network's coder and present it.

        When learning with ``stdp_mode="expected"`` (the config
        default), the variance-reduced update is used; "sampled" runs
        the literal spike-sampled rule.
        """
        train = self.coder.encode(image, rng=make_rng(rng))
        if self.fault_injector is not None:
            train = self.fault_injector.corrupt_spike_train(train, "snnwt")
        probabilities = None
        if learn and self.config.stdp_mode == "expected" and self.coder.rate_coded:
            probabilities = self.ltp_probabilities(image)
        return self.present(
            train,
            learn=learn,
            stop_after_first_spike=stop_after_first_spike,
            ltp_probabilities=probabilities,
        )

    def predict_image(self, image: np.ndarray, rng: SeedLike = None) -> int:
        """Predict the class of one image via the labeled winner neuron."""
        if self.neuron_labels is None:
            raise TrainingError("network has no neuron labels; run a labeling pass")
        winner = self.present_image(image, learn=False, rng=rng).readout()
        if winner < 0:
            return -1
        return int(self.neuron_labels[winner])

    def initialize_prototype_weights(
        self, images: np.ndarray, rng: SeedLike = None
    ) -> None:
        """Initialize receptive fields from sample (unlabeled) images.

        Each neuron's weights become an affine map of one randomly
        drawn training image plus noise — the standard prototype
        initialization of competitive learning.  The paper's full-scale
        runs bootstrap cluster structure from uniform random weights
        over millions of presentations; a scaled-down run has to start
        from prototypes or the pattern-dependent part of the potential
        (<1% of its mean) stays buried under homeostasis adjustments.
        Uses only unlabeled images, so training stays unsupervised.
        """
        rng = make_rng(rng)
        images = np.atleast_2d(images)
        if images.shape[1] != self.config.n_inputs:
            raise TrainingError(
                f"expected {self.config.n_inputs}-pixel images, got {images.shape[1]}"
            )
        idx = rng.choice(
            images.shape[0],
            size=self.config.n_neurons,
            replace=images.shape[0] < self.config.n_neurons,
        )
        base = images[idx].astype(np.float64) / 255.0
        w_max = float(self.config.w_max)
        noise = rng.normal(0.0, 0.04 * w_max, size=self.weights.shape)
        self.weights = np.clip(w_max * (0.15 + 0.6 * base) + noise, 1.0, w_max)

    def calibrate_thresholds(self, images: np.ndarray, factor: float = 0.7) -> None:
        """Set initial firing thresholds near the WTA equilibrium.

        The paper's fixed initial threshold (w_max * 70, Table 1) is
        tuned for full-scale runs where homeostasis has hundreds of
        epochs to find the operating point at which "only one neuron
        can fire for a given input image".  Scaled-down runs cannot
        afford that burn-in, so this sets each neuron's threshold to
        ``factor`` times its *expected full-presentation potential*
        (expected spike counts x weights, corrected for the average
        exponential leak), from which homeostasis fine-tunes.

        Uses only unlabeled training images, so the procedure remains
        unsupervised.  The expected spike counts come from the
        network's own coder (temporal coders emit far fewer spikes
        than rate coders, so calibrating on the rate law would leave
        their thresholds unreachably high).
        """
        images = np.atleast_2d(images)
        rng = child_rng(self.config.seed, "snn-calibrate")
        # encode_batch consumes the calibration stream exactly like the
        # historical per-image encode loop (its documented contract),
        # so thresholds are unchanged by the batching.
        counts = np.stack(
            [
                train.weighted_counts()
                for train in self.coder.encode_batch(images, rng=rng)
            ]
        ).astype(np.float64)
        # Spikes arrive spread over the presentation; a spike at time t
        # retains exp(-(T-t)/tau) of its weight at readout time T.  The
        # uniform-arrival average of that factor:
        tau, period = self.config.t_leak, self.config.t_period
        leak_correction = tau / period * (1.0 - np.exp(-period / tau))
        potentials = counts @ self.weights.T * leak_correction
        self.population.thresholds[:] = np.maximum(
            factor * potentials.mean(axis=0), 1.0
        )

    def equalize_thresholds(self) -> None:
        """Rescale every neuron so all firing thresholds are equal.

        First-spike dynamics are invariant under jointly scaling a
        neuron's weights and threshold by the same factor, so after
        training each neuron j is rescaled by (target / threshold_j),
        with the common target chosen so the largest weight lands at
        w_max (preserving 8-bit representability).  This makes the raw
        potentials directly comparable across neurons — which is what
        the SNNwot hardware's MAX readout (Figure 7) compares — without
        changing the timed network's behaviour.
        """
        thresholds = self.population.thresholds
        scale = 1.0 / thresholds
        candidate = self.weights * scale[:, None]
        peak = candidate.max()
        if peak <= 0:
            raise TrainingError("cannot equalize thresholds of a zero network")
        target = float(self.config.w_max) / peak
        self.weights = np.clip(candidate * target, 0.0, self.config.w_max)
        self.population.thresholds[:] = target

    def receptive_fields(self) -> np.ndarray:
        """Weights reshaped to (n_neurons, side, side) when inputs are square."""
        side = int(round(self.config.n_inputs**0.5))
        if side * side != self.config.n_inputs:
            raise TrainingError("inputs are not a square image")
        return self.weights.reshape(self.config.n_neurons, side, side)


class SNNTrainer:
    """Drives STDP training, the labeling pass and evaluation.

    The default pipeline adapts the paper's procedure to scaled-down
    datasets (the paper trains on 60,000 MNIST images for tens of
    epochs; see each method's docstring for why the corresponding
    adaptation is needed and why it preserves the model):

    1. prototype weight initialization from unlabeled images;
    2. threshold calibration near the one-spike-per-image equilibrium;
    3. STDP with a per-image "conscience" homeostasis schedule
       (the paper's rule with a one-image epoch and an asymmetric
       down-rate, whose fixed point is the same balanced win rate);
    4. threshold equalization, then the self-labeling pass.

    Args:
        network: the network to train in place.
        homeo_images: homeostasis epoch in *images* (the paper's
            1,500,000 ms epoch is 3,000 images at 500 ms).  Default 1
            (conscience mode); pass the config schedule via
            ``homeo_images=None, conscience=False`` for a paper-exact
            large-scale schedule.
        conscience: use the asymmetric per-win balancing (default).
    """

    def __init__(
        self,
        network: SpikingNetwork,
        homeo_images: Optional[int] = 1,
        conscience: bool = True,
    ):
        self.network = network
        config = network.config
        homeostasis = network.homeostasis
        if homeo_images is not None:
            if homeo_images < 1:
                raise TrainingError(f"homeo_images must be >= 1, got {homeo_images}")
            homeostasis.epoch_ms = homeo_images * config.t_period
            # Table 1's own scaling: threshold = 3 * #images / #N keeps
            # the target population firing rate at ~3 spikes per image.
            homeostasis.activity_threshold = max(
                3.0 * homeo_images / config.n_neurons, 0.5
            )
        if conscience:
            # Asymmetric rates: a win costs +rate, a loss refunds
            # rate/(N-1), so thresholds are stationary exactly when
            # every neuron wins 1/N of the images — the operating point
            # the paper's symmetric long-epoch schedule converges to.
            homeostasis.down_rate = homeostasis.rate / max(config.n_neurons - 1, 1)

    def train(
        self,
        dataset: Dataset,
        epochs: Optional[int] = None,
        initialize: bool = True,
        calibrate: bool = True,
        engine: str = "fused",
    ) -> None:
        """Unsupervised STDP pass(es) over the training images.

        ``initialize``/``calibrate`` control the prototype weight
        initialization and threshold calibration pre-steps (see
        :class:`SNNTrainer`); both use only unlabeled images.

        ``engine`` selects the presentation kernel: ``"fused"`` (the
        default) runs the vectorized
        :class:`~repro.snn.training.FusedSTDPEngine`, ``"serial"``
        runs the historical per-image / per-timestep loop.  Both
        consume the same shared ``child_rng(seed, "snn-train-spikes")``
        stream and produce **bit-identical** weights, thresholds and
        homeostasis state (``tests/snn/test_training_fused.py``); the
        serial path is kept as the oracle, reachable directly through
        :meth:`train_serial`.
        """
        if engine not in ("fused", "serial"):
            raise TrainingError(
                f"unknown training engine {engine!r}; use 'fused' or 'serial'"
            )
        config = self.network.config
        if epochs is None:
            epochs = config.epochs
        sample = dataset.images[: min(len(dataset), 500)]
        if initialize:
            self.network.initialize_prototype_weights(
                sample, rng=child_rng(config.seed, "snn-prototypes")
            )
        if calibrate:
            self.network.calibrate_thresholds(sample[:200])
        rng = child_rng(config.seed, "snn-train-spikes")
        fused = None
        if engine == "fused":
            from .training import FusedSTDPEngine  # local: avoids eager import

            fused = FusedSTDPEngine(self.network)
        for epoch in range(epochs):
            order = child_rng(config.seed, f"snn-train-order-{epoch}").permutation(
                len(dataset)
            )
            if fused is not None:
                fused.learn_images(dataset.images[order], rng)
                continue
            for index in order:
                self.network.present_image(
                    dataset.images[index],
                    learn=True,
                    rng=rng,
                    stop_after_first_spike=True,
                )

    def train_serial(
        self,
        dataset: Dataset,
        epochs: Optional[int] = None,
        initialize: bool = True,
        calibrate: bool = True,
    ) -> None:
        """Per-image reference oracle for :meth:`train`.

        Runs the historical presentation loop one image and one
        millisecond at a time; kept as the ground truth the fused
        engine is tested against (``tests/snn/test_training_fused.py``),
        mirroring the :meth:`predict_serial` precedent.
        """
        self.train(
            dataset,
            epochs=epochs,
            initialize=initialize,
            calibrate=calibrate,
            engine="serial",
        )

    def label(
        self, dataset: Dataset, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> NeuronLabeler:
        """Self-labeling pass (Section 2.2): tag neurons by win counts.

        Spike trains are drawn from the same shared
        ``child_rng(seed, "snn-label-spikes")`` stream, consumed in
        dataset order, as the historical per-image loop — so batching
        the *simulation* leaves the labeling outcome bit-identical.
        Winners are read ``batch_size`` rows at a time by the LIF
        readout scan, or by the batched grid where the scan refuses
        (:func:`repro.ir.backends.lif_scan.readout_winners`).
        """
        from ..ir.backends.lif_scan import readout_winners  # local: avoids eager import

        if batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
        config = self.network.config
        labeler = NeuronLabeler(config.n_neurons, config.n_labels)
        rng = child_rng(config.seed, "snn-label-spikes")
        trains = encode_shared(self.network, dataset.images, rng)
        for start in range(0, len(trains), batch_size):
            stop = start + batch_size
            winners = readout_winners(self.network, trains[start:stop])
            for winner, label in zip(winners, dataset.labels[start:stop]):
                labeler.record(int(winner), int(label))
        self.network.neuron_labels = labeler.labels()
        return labeler

    def fit(self, dataset: Dataset, epochs: Optional[int] = None) -> NeuronLabeler:
        """Train, equalize thresholds, then label.

        Threshold equalization (a pure per-neuron rescaling that leaves
        first-spike behaviour unchanged) happens between training and
        labeling so the labeling pass sees the deployed network.
        """
        self.train(dataset, epochs=epochs)
        self.network.equalize_thresholds()
        return self.label(dataset)

    def predict(
        self,
        dataset: Dataset,
        batch_size: int = DEFAULT_BATCH_SIZE,
        engine: str = "plan",
    ) -> np.ndarray:
        """Predictions for every sample of a dataset (batched engine).

        Each image ``i`` is encoded with the per-image generator
        ``child_rng(seed, "snn-test-spikes", i)``, so predictions
        depend only on ``(seed, i)`` — not on evaluation order, batch
        size or worker count — and are bit-identical to
        :meth:`predict_serial` at every ``batch_size``.

        ``engine="plan"`` (default) routes through the compiled
        execution IR (:mod:`repro.ir`) — same spike streams, same
        batched simulator, plus a content-addressed cache of the
        encoded dataset so repeated evaluation skips re-encoding.
        ``engine="legacy"`` calls :func:`predict_batch` directly; both
        are bit-identical to :meth:`predict_serial`.  A network with a
        live fault injector falls back to legacy automatically (plans
        compile only clean models).

        .. note:: Before the batched engine, this method consumed one
           shared generator sequentially, which coupled every
           prediction to evaluation order.  The per-image scheme is an
           intentional one-time change to the expected spike streams
           (accuracy fixtures are tolerance-based and unaffected).
        """
        if engine not in ("plan", "legacy"):
            raise TrainingError(
                f"unknown predict engine {engine!r}; use 'plan' or 'legacy'"
            )
        if engine == "plan":
            from ..core.errors import CompileError
            from ..ir import compile_model, run_plan
            from ..ir.plan_cache import context_for

            try:
                # Compile fresh (not via the plan memo): a trainer may
                # keep mutating this network in place between predicts,
                # and plan consts are snapshots.  Compilation is cheap;
                # the expensive encoded-dataset cache is keyed by
                # content, not by plan object, so it still hits.
                plan = compile_model(self.network, kind="snnwt")
            except CompileError:
                pass  # live fault injector: simulate the faulty network
            else:
                ctx = context_for(plan, dataset.images, warm=True)
                return run_plan(
                    plan,
                    dataset.images,
                    indices=list(range(len(dataset))),
                    ctx=ctx,
                )
        return predict_batch(
            self.network, dataset.images, batch_size=batch_size
        )

    def predict_serial(self, dataset: Dataset) -> np.ndarray:
        """Per-image reference oracle for :meth:`predict`.

        Simulates one image at a time with the same per-image RNG
        scheme; kept as the ground truth the batched engine is tested
        against (``tests/snn/test_batched.py``).
        """
        config = self.network.config
        return np.array(
            [
                self.network.predict_image(
                    image, rng=child_rng(config.seed, TEST_SPIKE_STREAM, index)
                )
                for index, image in enumerate(dataset.images)
            ]
        )

    def evaluate(
        self,
        dataset: Dataset,
        batch_size: int = DEFAULT_BATCH_SIZE,
        engine: str = "plan",
    ) -> EvaluationResult:
        """Accuracy bundle on a test set."""
        with phase("eval"):
            predictions = self.predict(
                dataset, batch_size=batch_size, engine=engine
            )
            return evaluate(predictions, dataset.labels, dataset.n_classes)


def train_snn(
    config: SNNConfig,
    train_set: Dataset,
    coder: Optional[SpikeCoder] = None,
    epochs: Optional[int] = None,
    homeo_images: Optional[int] = 1,
) -> SpikingNetwork:
    """Convenience: build, STDP-train and label a network."""
    network = SpikingNetwork(config, coder=coder)
    trainer = SNNTrainer(network, homeo_images=homeo_images)
    trainer.fit(train_set, epochs=epochs)
    return network


def evaluate_snn(network: SpikingNetwork, test_set: Dataset) -> EvaluationResult:
    """Evaluate a trained, labeled network on a test set."""
    return SNNTrainer(network).evaluate(test_set)
