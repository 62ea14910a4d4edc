"""Batched SNN inference engine (whole-test-set grid simulation).

The paper's central claim (Section 4) is that spiking dynamics
parallelize trivially — the SNNwt hardware updates every neuron every
emulated millisecond.  The per-image software path in
:mod:`repro.snn.network` simulates one image at a time inside a Python
``for t`` loop, so full-dataset evaluation is dominated by interpreter
overhead rather than math.  This module applies the hardware's
transformation to the numpy substrate: it runs inference for a whole
batch of B images *simultaneously*, with ``(B, n_neurons)`` potential /
refractory / inhibition matrices stepped on the same 1 ms grid.

Bit-identity contract
---------------------
Batched predictions are **bit-identical** to the per-image reference
path at every batch size.  Three mechanisms make that true:

1. *Per-image child RNGs.*  Spike trains are encoded with
   ``child_rng(seed, stream, image_index)``, a generator that depends
   only on ``(seed, stream, index)`` — never on evaluation order,
   batch size or worker count.
2. *Order-preserving accumulation.*  Floating-point addition is not
   associative, so both paths must add spike contributions in the same
   order.  The shared primitive :func:`gather_contribution` uses
   ``np.add.reduce(block, axis=0)`` — a strictly sequential
   accumulation over the outer axis (verified by
   ``tests/snn/test_batched.py``) — and the batched kernel adds the
   same per-spike weight rows *rank by rank* (k-th spike of every
   image in one vectorized gather-add), which reproduces exactly the
   same per-image accumulation order.
3. *Identical elementwise updates.*  Leak decay, masked integration,
   threshold comparison and argmax tie-breaking (first index wins) are
   elementwise / per-row operations with the same operand values in
   both paths.

Per-row early-exit masks let the first-spike readout stop simulating a
row as soon as its winner is known (the readout needs only the winner,
or — for rows that never fire — the full-presentation potentials),
which is where most of the batched speedup beyond vectorization comes
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.rng import SeedLike, child_rng
from .coding import SpikeTrain

#: RNG stream name used for test-time spike generation.  Shared by the
#: per-image reference path and the batched engine so both draw the
#: same spike trains for the same ``(seed, image_index)``.
TEST_SPIKE_STREAM = "snn-test-spikes"

#: Default number of images simulated simultaneously.  Large enough to
#: amortize the per-step Python overhead over the whole batch, small
#: enough that the (B, n_neurons) state matrices stay cache-resident
#: and that one slow-to-fire straggler does not pin a huge batch on
#: the grid (rows retire individually, but the step loop runs until
#: the last live row finishes).  128 measured fastest on the digits
#: workload: 64 under-amortizes the per-step overhead, 256 keeps too
#: many finished rows in flight.
DEFAULT_BATCH_SIZE = 128


def gather_contribution(
    weights: np.ndarray,
    inputs: np.ndarray,
    modulation: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-neuron contribution of one step's input spikes (one image).

    Accumulates ``weights[:, inputs[j]] * modulation[j]`` over spikes j
    *in spike order* via ``np.add.reduce`` over the outer axis — a
    strictly sequential sum, bit-identical to the rank-by-rank
    accumulation of the batched kernel.  This is the shared arithmetic
    primitive of :meth:`repro.snn.network.SpikingNetwork.present` and
    :func:`present_batch`; both paths owe their bit-identity to it.
    """
    block = weights.T[inputs]
    if modulation is not None and not np.all(modulation == 1.0):
        block = block * modulation[:, None]
    return np.add.reduce(block, axis=0)


def csr_matvecs_kernel():
    """SciPy's raw CSR multi-vector kernel, or ``None`` without SciPy.

    ``kernel(n_rows, n_cols, n_vecs, indptr, indices, data, x, y)``
    adds ``data[j] * x[indices[j]]`` into the zeroed ``y[i]`` for each
    stored entry ``j`` of row ``i``, in storage order, rounding each
    product before its add.  With one row per time step and spikes
    stored in spike order, row ``i`` is the strict left fold
    :func:`gather_contribution` computes for step ``i`` (its leading
    ``0.0 +`` can only turn a ``-0.0`` into ``+0.0``, which no
    threshold comparison sees; the fold is pinned by
    ``tests/snn/test_training_fused.py``).  The LIF readout scan and
    the fused STDP engine both build their contributions with it.  It
    checks no index: callers keep ``indices`` inside ``x``'s rows.
    """
    try:
        from scipy.sparse import _sparsetools
    except ImportError:
        return None
    return getattr(_sparsetools, "csr_matvecs", None)


@dataclass
class SpikeTrainBatch:
    """CSR-by-(step, rank) representation of B images' spike trains.

    The dense equivalent is a ``(B, T, n_inputs)`` step-count tensor;
    storing only the spikes keeps memory proportional to the actual
    spike count.  Spikes are sorted by ``(step, rank, row)`` where
    ``rank`` is the spike's position within its ``(row, step)`` bucket:
    slicing one ``(step, rank)`` segment yields *at most one spike per
    batch row*, so the kernel can accumulate it with a single
    vectorized fancy-index add — and doing the ranks in order
    reproduces the per-image accumulation order exactly.

    Attributes:
        inputs / modulation / rows: per-spike pixel index, decoder
            attenuation and batch row, in (step, rank, row) order.
        boundaries: ``(n_steps * n_ranks + 1,)`` prefix offsets; the
            ``(t, k)`` segment is
            ``boundaries[t*n_ranks+k] : boundaries[t*n_ranks+k+1]``.
        n_steps: grid length (ceil(duration / 1 ms)).
        n_ranks: maximum spikes any (row, step) bucket holds.
        batch: number of images B.
        n_inputs: input channels per image.
        duration: presentation length in ms (shared by all trains).
        uniform_modulation: True when every modulation is exactly 1.0
            (rate coding), enabling the multiply-free fast path.
    """

    inputs: np.ndarray
    modulation: np.ndarray
    rows: np.ndarray
    boundaries: np.ndarray
    n_steps: int
    n_ranks: int
    batch: int
    n_inputs: int
    duration: float
    uniform_modulation: bool

    @classmethod
    def from_trains(
        cls, trains: Sequence[SpikeTrain], step_ms: float = 1.0
    ) -> "SpikeTrainBatch":
        """Pack per-image :class:`SpikeTrain` objects into batch form."""
        if not trains:
            raise SimulationError("cannot batch zero spike trains")
        n_inputs = trains[0].n_inputs
        duration = trains[0].duration
        for train in trains:
            if train.n_inputs != n_inputs or train.duration != duration:
                raise SimulationError(
                    "all trains in a batch must share n_inputs and duration"
                )
        n_steps = int(np.ceil(duration / step_ms))
        sizes = np.array([train.n_spikes for train in trains], dtype=np.int64)
        total = int(sizes.sum())
        rows = np.repeat(np.arange(len(trains), dtype=np.int64), sizes)
        if total:
            times = np.concatenate([train.times for train in trains])
            inputs = np.concatenate([train.inputs for train in trains])
            modulation = np.concatenate([train.modulation for train in trains])
        else:
            times = np.empty(0)
            inputs = np.empty(0, dtype=np.int64)
            modulation = np.empty(0)
        step = np.minimum((times / step_ms).astype(np.int64), n_steps - 1)

        # Rank of each spike within its (row, step) bucket.  The concat
        # order is row-major with times ascending inside each row, so
        # the (row, step) key is globally non-decreasing and bucket
        # starts are where it changes.
        key = rows * np.int64(n_steps) + step
        idx = np.arange(total, dtype=np.int64)
        if total:
            new_bucket = np.empty(total, dtype=bool)
            new_bucket[0] = True
            np.not_equal(key[1:], key[:-1], out=new_bucket[1:])
            bucket_start = np.maximum.accumulate(np.where(new_bucket, idx, 0))
            rank = idx - bucket_start
            n_ranks = int(rank.max()) + 1
        else:
            rank = idx
            n_ranks = 1

        # Sort by (step, rank, row): each (step, rank) segment then
        # holds at most one spike per row, rows ascending.
        order = np.lexsort((rows, rank, step))
        inputs = inputs[order]
        modulation = modulation[order]
        rows_sorted = rows[order]
        segment_key = step[order] * np.int64(n_ranks) + rank[order]
        boundaries = np.searchsorted(
            segment_key, np.arange(n_steps * n_ranks + 1, dtype=np.int64)
        )
        return cls(
            inputs=inputs,
            modulation=modulation,
            rows=rows_sorted,
            boundaries=boundaries,
            n_steps=n_steps,
            n_ranks=n_ranks,
            batch=len(trains),
            n_inputs=n_inputs,
            duration=duration,
            uniform_modulation=bool(np.all(modulation == 1.0)),
        )


@dataclass
class BatchPresentationResult:
    """Vectorized counterpart of :class:`~repro.snn.network.PresentationResult`.

    Attributes:
        winners: (B,) first-firing neuron per image, -1 if none fired.
        winner_times: (B,) first firing time in ms, inf if none.
        final_potentials: (B, n_neurons) potentials at the end of the
            presentation.  Rows retired by an early-exit mask hold the
            potentials at retirement time; their readout uses the
            winner, so the stale values are never consulted.
        n_output_spikes: (B,) output spikes observed per image (only
            counts spikes emitted while the row was live).
    """

    winners: np.ndarray
    winner_times: np.ndarray
    final_potentials: np.ndarray
    n_output_spikes: np.ndarray

    def readouts(self) -> np.ndarray:
        """The paper's readout per row: first spiker, else max potential."""
        fallback = np.argmax(self.final_potentials, axis=1)
        return np.where(self.winners >= 0, self.winners, fallback)


def present_batch(
    network,
    batch: SpikeTrainBatch,
    stop_after_first_spike: bool = False,
    early_exit: bool = False,
) -> BatchPresentationResult:
    """Simulate B image presentations simultaneously on the 1 ms grid.

    Inference only (the trainer keeps the per-image path; STDP's
    sequential weight updates are inherently per-presentation).  With
    ``early_exit=True`` a row stops being simulated once its winner is
    known — valid for the first-spike readout, which never consults a
    fired row's later potentials.  ``stop_after_first_spike`` mirrors
    the per-image flag (the row's presentation *ends* at its first
    output spike).

    Every arithmetic step mirrors
    :meth:`repro.snn.network.SpikingNetwork.present` bit for bit; see
    the module docstring for the three mechanisms.
    """
    config = network.config
    if batch.n_inputs != config.n_inputs:
        raise SimulationError(
            f"batch has {batch.n_inputs} inputs, network expects {config.n_inputs}"
        )
    parameters = network.lif_parameters
    weights = network.weights
    weights_t = np.ascontiguousarray(weights.T)
    thresholds = network.thresholds[None, :]
    decay = parameters.decay_factor(1.0)
    n_neurons = config.n_neurons
    n_images = batch.batch
    n_ranks = batch.n_ranks
    boundaries = batch.boundaries

    potentials = np.zeros((n_images, n_neurons))
    refractory_until = np.full((n_images, n_neurons), -np.inf)
    inhibited_until = np.full((n_images, n_neurons), -np.inf)
    winners = np.full(n_images, -1, dtype=np.int64)
    winner_times = np.full(n_images, np.inf)
    n_output_spikes = np.zeros(n_images, dtype=np.int64)
    alive = np.ones(n_images, dtype=bool)
    alive_rows = alive[:, None]
    retire = stop_after_first_spike or early_exit
    row_index = np.arange(n_images)
    contributions = np.empty((n_images, n_neurons))
    # Preallocated mask buffers.  The step loop is overhead-bound at
    # serving batch sizes (B <= 64 on ~50 neurons), so per-step boolean
    # temporaries and `potentials[mask] op= x` gather/scatter copies
    # cost more than the arithmetic itself.  Masked in-place ufuncs
    # (`out=potentials, where=active`) perform *the same elementwise
    # operation on the same operand values* — bit-identity with the
    # per-image path is unaffected (pinned by tests/snn/test_batched.py
    # and the serving equivalence suite).
    active = np.empty((n_images, n_neurons), dtype=bool)
    scratch = np.empty((n_images, n_neurons), dtype=bool)
    eligible = np.empty((n_images, n_neurons), dtype=bool)

    for t in range(batch.n_steps):
        now = float(t)
        np.greater_equal(now, refractory_until, out=active)
        np.greater_equal(now, inhibited_until, out=scratch)
        np.logical_and(active, scratch, out=active)
        if retire:
            np.logical_and(active, alive_rows, out=active)
        np.multiply(potentials, decay, out=potentials, where=active)

        base = t * n_ranks
        if boundaries[base + n_ranks] > boundaries[base]:
            contributions[:] = 0.0
            for k in range(n_ranks):
                s0 = boundaries[base + k]
                s1 = boundaries[base + k + 1]
                if s1 == s0:
                    # Ranks are dense per step: no rank-k spikes means
                    # no rank-(k+1) spikes either.
                    break
                segment_rows = batch.rows[s0:s1]
                block = weights_t[batch.inputs[s0:s1]]
                if not batch.uniform_modulation:
                    block = block * batch.modulation[s0:s1][:, None]
                # One spike per row within a (step, rank) segment, so a
                # plain fancy-index add is a correct (and sequential-
                # order-preserving) scatter.
                contributions[segment_rows] += block
            np.add(potentials, contributions, out=potentials, where=active)

        np.greater_equal(potentials, thresholds, out=eligible)
        np.logical_and(eligible, active, out=eligible)
        if not eligible.any():
            continue
        overshoot = np.where(eligible, potentials - thresholds, -np.inf)
        winning_neuron = np.argmax(overshoot, axis=1)
        fired_rows = np.flatnonzero(
            overshoot[row_index, winning_neuron] > -np.inf
        )
        if not fired_rows.size:
            continue
        fired_neurons = winning_neuron[fired_rows]
        first_time = fired_rows[winners[fired_rows] < 0]
        winners[first_time] = winning_neuron[first_time]
        winner_times[first_time] = now
        n_output_spikes[fired_rows] += 1

        potentials[fired_rows, fired_neurons] = 0.0
        refractory_until[fired_rows, fired_neurons] = now + parameters.t_refrac
        saved = inhibited_until[fired_rows, fired_neurons].copy()
        inhibited_until[fired_rows] = np.maximum(
            inhibited_until[fired_rows], now + parameters.t_inhibit
        )
        inhibited_until[fired_rows, fired_neurons] = saved

        if stop_after_first_spike:
            alive[fired_rows] = False
        elif early_exit:
            alive[first_time] = False
        if retire and not alive.any():
            break

    return BatchPresentationResult(
        winners=winners,
        winner_times=winner_times,
        final_potentials=potentials,
        n_output_spikes=n_output_spikes,
    )


def encode_indexed(
    network,
    images: np.ndarray,
    indices: Sequence[int],
    seed: SeedLike = None,
    stream: str = TEST_SPIKE_STREAM,
) -> List[SpikeTrain]:
    """Encode images with the per-index child-RNG scheme.

    Image ``indices[j]`` is encoded with
    ``child_rng(seed, stream, indices[j])`` — independent of batch
    composition — and passed through the network's fault injector (in
    index order, preserving the injector's stream semantics).
    """
    seed = network.config.seed if seed is None else seed
    trains = []
    for index, image in zip(indices, images):
        train = network.coder.encode(
            image, rng=child_rng(seed, stream, int(index))
        )
        if network.fault_injector is not None:
            train = network.fault_injector.corrupt_spike_train(train, "snnwt")
        trains.append(train)
    return trains


def encode_shared(
    network, images: np.ndarray, rng: np.random.Generator
) -> List[SpikeTrain]:
    """Encode images consuming one shared generator sequentially.

    Matches the legacy per-image loops (e.g. the labeling pass) that
    thread a single RNG through consecutive presentations, so batching
    the *simulation* does not change which spike trains are drawn.
    """
    trains = []
    for image in images:
        train = network.coder.encode(image, rng=rng)
        if network.fault_injector is not None:
            train = network.fault_injector.corrupt_spike_train(train, "snnwt")
        trains.append(train)
    return trains


def batch_winners(
    network,
    trains: Sequence[SpikeTrain],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> np.ndarray:
    """First-spike/max-potential readout winners for a list of trains."""
    if batch_size < 1:
        raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
    winners = np.empty(len(trains), dtype=np.int64)
    for start in range(0, len(trains), batch_size):
        chunk = trains[start : start + batch_size]
        result = present_batch(
            network, SpikeTrainBatch.from_trains(chunk), early_exit=True
        )
        winners[start : start + len(chunk)] = result.readouts()
    return winners


def predict_batch(
    network,
    images: np.ndarray,
    indices: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    stream: str = TEST_SPIKE_STREAM,
) -> np.ndarray:
    """Batched counterpart of :meth:`SpikingNetwork.predict_image`.

    Returns per-image class labels through the network's neuron-label
    map.  ``indices`` defaults to ``0..B-1`` (dataset order); pass
    explicit indices when predicting a shard of a larger set so the
    per-image RNG streams still line up with whole-set evaluation.
    """
    from ..core.errors import TrainingError  # mirrors predict_image

    if network.neuron_labels is None:
        raise TrainingError("network has no neuron labels; run a labeling pass")
    images = np.atleast_2d(images)
    if indices is None:
        indices = range(images.shape[0])
    trains = encode_indexed(network, images, indices, seed=seed, stream=stream)
    winners = batch_winners(network, trains, batch_size=batch_size)
    return np.asarray(network.neuron_labels)[winners]
