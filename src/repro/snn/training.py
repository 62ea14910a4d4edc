"""Fused STDP presentation/training engine (the vectorized cold path).

PR 2 made *inference* fast (:mod:`repro.snn.batched`); this module
applies the same discipline to unsupervised STDP **training**, the
remaining per-image / per-timestep / per-spike Python hot loop that
dominates a cold (cache-miss) reproduction run.  The serial path —
:meth:`repro.snn.network.SpikingNetwork.present` driven by
:meth:`SNNTrainer.train_serial` — stays in place as the oracle; this
engine produces **bit-identical weights, thresholds, homeostasis
state and labels** (asserted by ``tests/snn/test_training_fused.py``).

Why training cannot be batched across images
--------------------------------------------
STDP updates the winning neuron's weight row after every presentation,
and the trainer's per-image "conscience" homeostasis updates *all*
thresholds between presentations — image ``i+1``'s dynamics depend on
image ``i``'s outcome.  So unlike inference, presentations must stay
sequential.  What *can* be fused:

1. **Batched spike encoding.**  All RNG draws for a chunk of images
   are folded into one generator call
   (:meth:`SpikeCoder.encode_batch`); a single ``(B, ...)``-shaped
   NumPy draw fills rows in the same stream order as ``B`` successive
   per-image draws, so the shared ``child_rng(seed,
   "snn-train-spikes")`` stream advances identically.
2. **Stop at the first output spike.**  With
   ``stop_after_first_spike=True`` (the trainer's invariant operating
   point; the paper's winner-takes-all presentation ends at its single
   output spike, where the §4.4 learning circuit updates) nothing after
   that spike is observable, so the engine walks each presentation in
   chunks of :data:`STEP_CHUNK` steps and stops at the chunk holding
   the first threshold crossing.  On the digits models that spike lands
   near step 220 of 500, so about half the steps are never built.
3. **Per-chunk contributions from the shared CSR kernel.**  A chunk's
   per-step input drive ``C[t]`` comes from one call of SciPy's CSR
   multi-vector kernel (:func:`repro.snn.batched.csr_matvecs_kernel`,
   the same kernel the LIF readout scan uses), one row per step with
   the step's spikes stored in spike order.  The kernel folds each
   step's spikes strictly left to right with every product rounded
   before its add, which is the fold of
   :func:`repro.snn.batched.gather_contribution` bit for bit, without
   the ``(n_spikes, n_neurons)`` weight gather.
4. **An exact in-place recurrence per chunk.**  Until the first output
   spike every neuron stays active, so the serial loop's masked
   operations reduce to whole-array ones (``v[all-true] *= d`` is
   bitwise ``v *= d``) and the per-step recurrence is exactly
   ``v[t] = round(v[t-1] * d) + C[t]``.  The chunk's contributions sit
   in rows ``1..span`` of one buffer whose row 0 carries the potential
   in from the previous chunk, and one more call of the same kernel,
   :func:`repro.snn.batched.leak_scan`, runs the recurrence down it in
   place: each row gains the rounded product ``d * v[t-1]``, which
   IEEE commutativity makes bitwise the serial loop's arithmetic
   (property-tested in ``tests/snn/test_training_fused.py``).  The
   first row of the exact trajectory that crosses a threshold *is* the
   serial loop's firing step, so firing detection is a vectorized
   comparison.
5. **Gated fire checks (SciPy-free fallback).**  When
   :func:`repro.snn.batched.leak_scan_kernel` has no kernel (no SciPy,
   or a kernel that fails its probe), each presentation's
   contributions are built for every step by a count-class scatter
   (steps with ``c`` spikes form one ``(m, c, n_neurons)`` gather
   whose axis-1 ``np.add.reduce`` is the same strict fold), and the
   scan stays a Python loop.
   Contributions and the leak are non-negative with decay ``<= 1``,
   so the decay-free running sum ``U[t] = sum(C[:t+1])`` bounds every
   potential from above; steps where no ``U[t]`` reaches its
   threshold cannot fire and skip the threshold comparison entirely.
   (The serial path's comparison is executed verbatim on the steps
   that remain, so the first firing step, winning neuron and
   overshoot tie-break are unchanged.)

The recurrence path computes the *true* potential trajectory, so it
needs no sign preconditions.  The fallback loop's upper bound does:
whenever one fails there (negative weights from a custom STDP floor,
negative decoder modulation, non-positive thresholds) the engine falls
back to the serial oracle for that presentation — slower, never wrong.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.rng import SeedLike, make_rng
from . import batched
from .coding import SpikeTrain, mean_interval

#: Images encoded per fused chunk.  Bounds the batched RNG draw and
#: keeps the shared-stream consumption granular enough that callers
#: interleaving other work (e.g. the retention study's probes) can
#: window their presentations without changing any stream.
TRAIN_CHUNK = 64

#: Steps per scanned chunk of one learning presentation.  Shorter
#: chunks build fewer steps past the first output spike, longer ones
#: pay the per-chunk calls less often.
STEP_CHUNK = 64


class FusedSTDPEngine:
    """Vectorized learning presentations for one :class:`SpikingNetwork`.

    Reusable scratch buffers (potentials, ``last_pre``, the contiguous
    transposed weight matrix) are allocated once per engine; the
    transposed weights are kept in sync with STDP's row updates by
    writing back the single modified column after each firing.
    """

    def __init__(self, network):
        self.network = network
        config = network.config
        self._v = np.empty(config.n_neurons)
        self._last_pre = np.empty(config.n_inputs)
        self._decay = network.lif_parameters.decay_factor(1.0)
        self._wt: Optional[np.ndarray] = None
        self._wt_source: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Preconditions
    # ------------------------------------------------------------------
    def supported(self) -> bool:
        """True when the fused engine can run this network's presentations.

        The recurrence path computes exact potentials, so it is
        always safe.  The SciPy-free fallback additionally requires
        non-negative weights (guaranteed when the STDP floor
        ``w_min >= 0`` clamps every update) and strictly positive
        thresholds, so potentials can only *decrease* on spike-free
        steps and ``cumsum(C)`` bounds them from above.  Checked per
        chunk; a False verdict routes presentations through the serial
        oracle instead.
        """
        if batched.leak_scan_kernel() is not None:
            return True
        network = self.network
        if network.stdp.w_min < 0:
            return False
        if not np.all(network.population.thresholds > 0):
            return False
        if np.any(network.weights < 0):
            return False
        return True

    def _transposed_weights(self) -> np.ndarray:
        """Contiguous ``weights.T`` cache, rebuilt when the array is replaced."""
        weights = self.network.weights
        if self._wt is None or self._wt_source is not weights:
            self._wt = np.ascontiguousarray(weights.T)
            self._wt_source = weights
        return self._wt

    # ------------------------------------------------------------------
    # Chunked learning pass
    # ------------------------------------------------------------------
    def learn_images(self, images: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Present ``images`` in order with learning on; returns winners.

        Bit-identical to the serial loop ::

            for image in images:
                network.present_image(image, learn=True, rng=rng,
                                      stop_after_first_spike=True)

        including consumption of the shared ``rng`` stream and of the
        fault injector's spike-corruption stream (corruptions are
        applied per image, in presentation order, after encoding).
        """
        network = self.network
        rng = make_rng(rng)
        images = np.atleast_2d(np.asarray(images))
        winners = np.full(images.shape[0], -1, dtype=np.int64)
        expected = (
            network.config.stdp_mode == "expected" and network.coder.rate_coded
        )
        for start in range(0, images.shape[0], TRAIN_CHUNK):
            chunk = images[start : start + TRAIN_CHUNK]
            if not self.supported():
                # Serial oracle, image by image (same streams by contract).
                for offset, image in enumerate(chunk):
                    result = network.present_image(
                        image, learn=True, rng=rng, stop_after_first_spike=True
                    )
                    winners[start + offset] = result.winner
                continue
            trains = network.coder.encode_batch(chunk, rng=rng)
            if network.fault_injector is not None:
                trains = [
                    network.fault_injector.corrupt_spike_train(train, "snnwt")
                    for train in trains
                ]
            q_rows: Optional[np.ndarray] = None
            if expected:
                # Batched counterpart of SpikingNetwork.ltp_probabilities:
                # every operation is elementwise, so each row is
                # bit-identical to the per-image computation.
                intervals = mean_interval(
                    chunk, network.config.min_spike_interval
                )
                q_rows = 1.0 - np.exp(-network.config.t_ltp / intervals)
            for offset, train in enumerate(trains):
                q = q_rows[offset] if q_rows is not None else None
                winners[start + offset] = self.present_learn(train, q)
        return winners

    # ------------------------------------------------------------------
    # One fused learning presentation
    # ------------------------------------------------------------------
    def present_learn(
        self, train: SpikeTrain, ltp_probabilities: Optional[np.ndarray] = None
    ) -> int:
        """One learning presentation (``stop_after_first_spike`` semantics).

        Mirrors :meth:`SpikingNetwork.present` with ``learn=True``:
        same leak/integration arithmetic, same threshold comparison and
        overshoot tie-break, same STDP and homeostasis side effects —
        on the fused data layout.  Returns the winning neuron (-1 if
        none fired).
        """
        network = self.network
        thresholds = network.population.thresholds
        kernel = batched.leak_scan_kernel()
        if kernel is None and np.any(train.modulation < 0):
            # Negative decoder attenuation breaks the fallback loop's
            # upper bound; run this presentation through the serial
            # oracle.  (The recurrence path is exact and keeps going.)
            return network.present(
                train,
                learn=True,
                stop_after_first_spike=True,
                ltp_probabilities=ltp_probabilities,
            ).winner
        homeostasis = network.homeostasis
        n_steps, step_idx = train.step_indices(1.0)
        inputs = train.inputs
        if inputs.size == 0:
            if np.any(thresholds <= 0):
                # A zero potential crosses a non-positive threshold at
                # step 0; let the serial oracle arbitrate that edge.
                return network.present(
                    train,
                    learn=True,
                    stop_after_first_spike=True,
                    ltp_probabilities=ltp_probabilities,
                ).winner
            # No input spikes: potentials stay exactly 0 < thresholds,
            # nothing fires; only the homeostasis clock advances.
            homeostasis.advance(train.duration, thresholds)
            return -1
        if (
            np.any(np.diff(step_idx) < 0)
            or inputs.min() < 0
            or inputs.max() >= network.weights.shape[1]
        ):
            # Only reachable if the train was mutated post-init
            # (step_slices has the same defensive branch) or indexes
            # past the weights, which the unchecked CSR kernel must
            # never see; the serial oracle wraps or raises as NumPy
            # indexing does.
            return network.present(
                train,
                learn=True,
                stop_after_first_spike=True,
                ltp_probabilities=ltp_probabilities,
            ).winner

        boundaries = np.searchsorted(step_idx, np.arange(n_steps + 1))
        if kernel is not None:
            winner = self._recurrence_scan(
                kernel, train, step_idx, boundaries, ltp_probabilities
            )
        else:
            winner = self._gated_scan(
                train, step_idx, boundaries, ltp_probabilities
            )
        homeostasis.advance(train.duration, thresholds)
        return winner

    def _recurrence_scan(
        self,
        kernel,
        train: SpikeTrain,
        step_idx: np.ndarray,
        boundaries: np.ndarray,
        ltp_probabilities: Optional[np.ndarray],
    ) -> int:
        """Exact chunked trajectory up to the first crossing; the winner.

        Each chunk's contributions come from the CSR kernel into rows
        ``1..span`` of one buffer whose row 0 carries the potential in,
        and its potentials from the in-place recurrence over that
        buffer (see the module docstring).
        """
        thresholds = self.network.population.thresholds
        inputs = train.inputs
        modulation = np.asarray(train.modulation, dtype=np.float64)
        weights_t = self._transposed_weights()
        flat_weights = weights_t.reshape(-1)
        n_inputs, n_neurons = weights_t.shape
        n_steps = boundaries.size - 1
        carried = np.zeros(n_neurons)
        for t0 in range(0, n_steps, STEP_CHUNK):
            t1 = min(t0 + STEP_CHUNK, n_steps)
            s0 = int(boundaries[t0])
            s1 = int(boundaries[t1])
            block = np.zeros((1, t1 - t0 + 1, n_neurons))
            block[0, 0] = carried
            if s1 > s0:
                kernel(
                    t1 - t0,
                    n_inputs,
                    n_neurons,
                    boundaries[t0 : t1 + 1] - s0,
                    inputs[s0:s1],
                    modulation[s0:s1],
                    flat_weights,
                    block.reshape(-1)[n_neurons:],
                )
            batched.leak_scan(kernel, block, self._decay)
            potentials = block[0, 1:]
            crossed = potentials >= thresholds
            rows = np.flatnonzero(crossed.any(axis=1))
            if rows.size:
                t = int(rows[0])
                return self._fire(
                    t0 + t,
                    potentials[t],
                    thresholds,
                    np.flatnonzero(crossed[t]),
                    inputs,
                    step_idx,
                    boundaries,
                    ltp_probabilities,
                )
            carried = potentials[-1]
        return -1

    def _gated_scan(
        self,
        train: SpikeTrain,
        step_idx: np.ndarray,
        boundaries: np.ndarray,
        ltp_probabilities: Optional[np.ndarray],
    ) -> int:
        """SciPy-free presentation: every step's drive, then a gated loop."""
        thresholds = self.network.population.thresholds
        inputs = train.inputs
        modulation = train.modulation
        n_steps = boundaries.size - 1
        block = self._transposed_weights()[inputs]
        if not np.all(modulation == 1.0):
            block = block * modulation[:, None]

        # Per-step contributions, grouped by spike count: all steps with
        # exactly c spikes form one rectangular (m, c, n_neurons) gather
        # whose axis-1 ``np.add.reduce`` runs the same strided
        # sequential row fold as gather_contribution's axis-0 reduce
        # over each step's (c, n_neurons) slice (property-tested in the
        # fused-training suite), so every row of C carries the serial
        # path's exact rounding.  The k-th spike of a step sits at
        # ``boundaries[step] + k`` (spikes are step-sorted), so the
        # gather is a closed-form index expression — no per-image sort.
        n_neurons = self.network.config.n_neurons
        contributions = np.zeros((n_steps, n_neurons))
        counts = boundaries[1:] - boundaries[:-1]
        max_count = int(counts.max())
        starts = boundaries[:-1]
        if max_count == 1:
            contributions[step_idx] = block
        elif n_neurons >= 2:
            for c in np.unique(counts):
                if c == 0:
                    continue
                sel = np.flatnonzero(counts == c)
                if c == 1:
                    contributions[sel] = block[starts[sel]]
                else:
                    rows = block[starts[sel][:, None] + np.arange(c)]
                    contributions[sel] = np.add.reduce(rows, axis=1)
        else:
            # n_neurons == 1: the inner axis degenerates to contiguous
            # scalars where np.add.reduce switches to pairwise
            # summation, so fall back to rank layers (one spike of each
            # step per pass — a strict left fold by construction).
            for k in range(max_count):
                steps_k = np.flatnonzero(counts > k)
                contributions[steps_k] += block[starts[steps_k] + k]

        # Decay-free running sums bound every potential from above
        # (contributions are non-negative by supported()); steps where
        # no neuron's bound reaches threshold cannot fire.
        upper = np.cumsum(contributions, axis=0)
        possible = np.any(upper >= thresholds[None, :], axis=1).tolist()
        has_spikes = (boundaries[1:] > boundaries[:-1]).tolist()
        decay = self._decay
        v = self._v
        v.fill(0.0)
        # Steps before the first spike leave v at exactly +0.0 (the
        # serial path multiplies zeros by the decay), so the scan can
        # start at the first spike step.
        for t in range(int(step_idx[0]), n_steps):
            v *= decay
            if has_spikes[t]:
                v += contributions[t]
            if possible[t]:
                # Two-stage check: the cheap any() gate decides exactly
                # the same predicate as the serial path's
                # flatnonzero(...).size (fired-set emptiness); the index
                # set itself is only materialized on an actual firing.
                if (v >= thresholds).any():
                    return self._fire(
                        t,
                        v,
                        thresholds,
                        np.flatnonzero(v >= thresholds),
                        inputs,
                        step_idx,
                        boundaries,
                        ltp_probabilities,
                    )
        return -1

    def _fire(
        self,
        t: int,
        v: np.ndarray,
        thresholds: np.ndarray,
        fired: np.ndarray,
        inputs: np.ndarray,
        step_idx: np.ndarray,
        boundaries: np.ndarray,
        ltp_probabilities: Optional[np.ndarray],
    ) -> int:
        """Apply the serial path's firing side effects; returns the winner.

        Same overshoot tie-break, STDP update (sampled or expected) and
        homeostasis activity recording as :meth:`SpikingNetwork.present`
        at its single ``stop_after_first_spike`` output spike.
        """
        network = self.network
        stdp = network.stdp
        weights = network.weights
        overshoot = v[fired] - thresholds[fired]
        neuron = int(fired[int(np.argmax(overshoot))])
        if ltp_probabilities is not None:
            stdp.expected_apply(weights[neuron], ltp_probabilities)
        else:
            last_pre = self._last_pre
            last_pre.fill(-np.inf)
            upto = int(boundaries[t + 1])
            # Later duplicates win the fancy assignment, so each input
            # ends at its most recent step — exactly the serial loop's
            # per-step overwrite.
            last_pre[inputs[:upto]] = step_idx[:upto].astype(np.float64)
            stdp.apply(weights[neuron], last_pre, float(t))
        if self._wt is not None:
            self._wt[:, neuron] = weights[neuron]
        network.homeostasis.record_firing(neuron)
        return neuron


def learn_images_serial(network, images: np.ndarray, rng: SeedLike = None) -> List[int]:
    """Reference per-image loop matching :meth:`FusedSTDPEngine.learn_images`.

    Kept as an importable oracle for tests and benchmarks that compare
    the fused stream helper directly (the trainer-level oracle is
    :meth:`SNNTrainer.train_serial`).
    """
    rng = make_rng(rng)
    winners = []
    for image in np.atleast_2d(np.asarray(images)):
        result = network.present_image(
            image, learn=True, rng=rng, stop_after_first_spike=True
        )
        winners.append(result.winner)
    return winners
