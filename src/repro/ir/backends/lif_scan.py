"""Chunked linear-recurrence scan for the timed LIF readout.

The PR 2 batched grid (:func:`repro.snn.batched.present_batch`) walks
every 1 ms step with full ``(B, n)`` masked arithmetic.  For the
*inference readout* a much cheaper schedule is exact, because of three
structural facts about the pre-first-spike regime:

1. **Pure linear recurrence.**  Until a row's first output spike its
   refractory/inhibition clocks sit at ``-inf``, so every neuron is
   active at every step and the potential evolves as
   ``p[t] = decay * p[t-1] + C[t]`` with ``C[t]`` the spike
   contribution row.  The first-spike readout never consults a fired
   row again (``early_exit`` retires it), so the recurrence is the
   whole computation.
2. **Threshold crossings happen only at spike steps.**  With
   non-negative weights and modulations the potentials are
   non-negative; with ``0 <= decay < 1`` and positive thresholds a
   decay-only step can never cross a threshold upward.  Eligibility
   therefore only needs checking at steps that actually carry input
   spikes — a few hundred checks instead of ``T`` per chunk.
3. **Zero-adds are exact.**  ``p + 0.0`` is bitwise ``p`` for
   ``p >= 0``, so batching contribution adds across rows (some of
   which have no spike at that step) cannot perturb anything — the
   same property the batched grid itself already relies on.

Contribution rows are built in bulk per time-chunk: each live row's
spikes are sliced out of the concatenated CSR train arrays with two
``searchsorted`` calls, bucketed into ``(row, step)`` cells, and
contracted against the transposed weight matrix with one
``scipy.sparse`` CSR mat-vecs call.  The sparse accumulate adds each
cell's spikes sequentially in storage order — times ascending, i.e.
exactly the rank order the batched grid replays — so the result is
bitwise the grid's contribution row.

When any precondition fails (scipy missing, negative weights or
modulation, decay outside ``[0, 1)``, non-positive thresholds, mixed
durations) :func:`readout_winners` falls back to :func:`batch_winners`
wholesale; the scan never runs "approximately".
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

#: Steps per chunk — the measured sweet spot on L2-sized working sets.
#: Small chunks retire fired rows sooner (live rows shrink only at
#: chunk boundaries), which beats the per-chunk slicing overhead.
DEFAULT_CHUNK_STEPS = 32


def scan_refusal(network, trains: Sequence[Any]) -> Optional[str]:
    """Why the scan cannot be used for this readout (``None`` = it can).

    Every condition here is a *bit-identity precondition*, not a
    performance heuristic — see the module docstring for why each one
    is load-bearing.
    """
    from ...snn.batched import csr_matvecs_kernel

    if csr_matvecs_kernel() is None:
        return "scipy.sparse CSR kernel unavailable"
    if not trains:
        return None  # empty batch: trivially handled
    weights = np.asarray(network.weights)
    if not np.all(weights >= 0):
        return "negative synaptic weights"
    thresholds = np.asarray(network.thresholds)
    if not np.all(thresholds > 0):
        return "non-positive firing thresholds"
    decay = float(network.lif_parameters.decay_factor(1.0))
    if not 0.0 <= decay < 1.0:
        return f"decay factor {decay} outside [0, 1)"
    duration = trains[0].duration
    n_inputs = trains[0].n_inputs
    for train in trains:
        if train.duration != duration or train.n_inputs != n_inputs:
            return "trains with mixed duration/n_inputs"
        if train.n_spikes and not np.all(train.modulation >= 0):
            return "negative spike modulation"
    if int(n_inputs) != weights.shape[1]:
        # weights are (n_neurons, n_inputs); the scan contracts against
        # the transpose, so the train width must match the input axis.
        return "train width does not match the weight matrix"
    return None


def _multi_arange(lo: np.ndarray, hi: np.ndarray):
    """Concatenated ``arange(lo[i], hi[i])`` spans plus per-span counts."""
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64), counts
    out = np.ones(total, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    nz = counts > 0
    out[starts[nz]] = lo[nz]
    first = starts[nz]
    out[first[1:]] = lo[nz][1:] - hi[nz][:-1] + 1
    return np.cumsum(out), counts


def scan_winners(
    network,
    trains: Sequence[Any],
    chunk_steps: int = DEFAULT_CHUNK_STEPS,
) -> np.ndarray:
    """First-spike/max-potential readout, bitwise ``batch_winners``.

    Callers must have cleared :func:`scan_refusal` first; the scan
    assumes its preconditions and does not re-check them.
    """
    from ...snn.batched import csr_matvecs_kernel

    csr_matvecs = csr_matvecs_kernel()
    B = len(trains)
    winners = np.full(B, -1, dtype=np.int64)
    if not B:
        return winners

    weights_t = np.ascontiguousarray(
        np.asarray(network.weights, dtype=np.float64).T
    )
    thresholds = np.asarray(network.thresholds, dtype=np.float64)[None, :]
    decay = float(network.lif_parameters.decay_factor(1.0))
    n_inputs, n_neurons = weights_t.shape
    T = int(np.ceil(trains[0].duration / 1.0))

    sizes = np.array([train.n_spikes for train in trains], dtype=np.int64)
    total = int(sizes.sum())
    if total:
        times = np.concatenate([train.times for train in trains])
        inputs = np.ascontiguousarray(
            np.concatenate([train.inputs for train in trains]),
            dtype=np.int64,
        )
        modulation = np.ascontiguousarray(
            np.concatenate([train.modulation for train in trains]),
            dtype=np.float64,
        )
        step = np.minimum(times.astype(np.int64), T - 1)
        rows = np.repeat(np.arange(B, dtype=np.int64), sizes)
        # Spikes are stored row-major with times ascending per row, so
        # this composite key is sorted and searchsorted slices per-row
        # per-chunk spans without any reordering.
        key = rows * np.int64(T) + step
        t_active = int(step.max()) + 1
    else:
        t_active = 0

    live = np.arange(B, dtype=np.int64)
    potentials = np.zeros((B, n_neurons))
    t0 = 0
    while t0 < t_active and live.size:
        t1 = min(t0 + int(chunk_steps), t_active)
        span = t1 - t0
        lo = np.searchsorted(key, live * np.int64(T) + t0)
        hi = np.searchsorted(key, live * np.int64(T) + t1)
        sel, per_row = _multi_arange(lo, hi)
        n_live = live.size
        contributions = None
        spike_step = np.zeros(span, dtype=bool)
        if sel.size:
            t_local = step[sel] - t0
            cell = (
                np.repeat(np.arange(n_live, dtype=np.int64), per_row) * span
                + t_local
            )
            cell_counts = np.bincount(cell, minlength=n_live * span)
            indptr = np.empty(n_live * span + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(cell_counts, out=indptr[1:])
            contributions = np.zeros((n_live, span, n_neurons))
            csr_matvecs(
                n_live * span,
                n_inputs,
                n_neurons,
                indptr,
                inputs[sel],
                modulation[sel],
                weights_t.ravel(),
                contributions.reshape(-1),
            )
            spike_step[t_local] = True
        alive = np.ones(n_live, dtype=bool)
        n_alive = n_live
        for t_loc in range(span):
            np.multiply(potentials, decay, out=potentials)
            if contributions is not None and spike_step[t_loc]:
                np.add(potentials, contributions[:, t_loc], out=potentials)
                # Retired rows keep decaying/accumulating harmlessly —
                # per-row elementwise math can't touch live rows, and a
                # fired row's later potentials are never read (the same
                # early-exit contract as the batched grid).
                hit = (potentials >= thresholds).any(axis=1)
                np.logical_and(hit, alive, out=hit)
                if hit.any():
                    fired = np.flatnonzero(hit)
                    scores = potentials[fired]
                    overshoot = np.where(
                        scores >= thresholds, scores - thresholds, -np.inf
                    )
                    winners[live[fired]] = np.argmax(overshoot, axis=1)
                    alive[fired] = False
                    n_alive -= fired.size
                    if not n_alive:
                        break
        live = live[alive]
        potentials = potentials[alive]
        t0 = t1
    if live.size:
        # Decay tail for rows that never fire: the grid keeps decaying
        # them through the spike-free remainder of the presentation
        # before its max-potential fallback readout.
        for _ in range(t0, T):
            np.multiply(potentials, decay, out=potentials)
        winners[live] = np.argmax(potentials, axis=1)
    return winners


def readout_winners(network, trains: Sequence[Any]) -> np.ndarray:
    """First-spike/max-potential winners: the scan, else the batched grid.

    Runs :func:`scan_winners` when :func:`scan_refusal` clears the
    trains and :func:`~repro.snn.batched.batch_winners` otherwise;
    both read out the same bits.  The plan executor's LIF step and
    :meth:`~repro.snn.network.SNNTrainer.label` read winners here.
    """
    from ...snn.batched import DEFAULT_BATCH_SIZE, batch_winners

    if scan_refusal(network, trains) is None:
        return scan_winners(network, trains)
    return batch_winners(network, trains, batch_size=DEFAULT_BATCH_SIZE)
