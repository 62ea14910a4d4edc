"""Chunked in-place recurrence scan for the timed LIF readout.

The batched grid (:func:`repro.snn.batched.present_batch`) walks
every 1 ms step with full ``(B, n)`` masked arithmetic.  For the
*inference readout* a much cheaper schedule is exact.  Until a row's
first output spike its refractory/inhibition clocks sit at ``-inf``, so
every neuron is active at every step and the potential evolves as
``p[t] = p[t-1] * decay + C[t]``, with ``C[t]`` the spike contribution
row.  The first-spike readout never consults a fired row again
(``early_exit`` retires it), so that recurrence is the whole
computation.

The scan walks the presentation in chunks of steps.  Each live row owns
a block of ``span + 1`` rows in one C-contiguous buffer: row 0 carries
the row's potential into the chunk and rows ``1..span`` are its steps.
Per chunk:

1. **Contributions.**  Each live row's spikes are sliced out of the
   concatenated CSR train arrays with two ``searchsorted`` calls,
   bucketed into ``(row, step)`` cells and contracted against the
   transposed weight matrix by one call of SciPy's CSR kernel
   (:func:`repro.snn.batched.csr_matvecs_kernel`).  It adds each cell's
   spikes in storage order (times ascending, the rank order the grid
   replays), so each step row is bitwise the grid's contribution row.
2. **Recurrence.**  One more call of the same kernel,
   :func:`repro.snn.batched.leak_scan`, runs ``p = p*decay + C`` down
   every block in place, bitwise the grid's ``fl(fl(p*d) + C)``.  A
   step without spikes adds ``0.0``, which can only turn a ``-0.0``
   into ``+0.0``; no comparison or argmax tells the two apart.
3. **First crossing.**  A vectorized check over rows ``1..span``
   (never row 0, the carried state) finds each row's first step at or
   above a threshold: a max over the steps picks the rows that cross
   anywhere in the chunk, and a comparison over those rows' steps
   finds the first.  The grid checks every step too, so that is the
   grid's firing step, and the grid's overshoot argmax there is the
   winner.  Fired rows retire; the others carry their last row into
   the next chunk.

A row that never fires decays through the spike-free rest of the
presentation and reads out its max potential, as in the grid.  With
``0 <= decay < 1`` and positive thresholds a decay-only step cannot
cross a threshold upward, so that tail needs no check.

The chunk length follows the live-row count so that a chunk's buffer
stays near :data:`_BLOCK_BYTES`: on a 300-neuron network up to 13 live
rows get 64 steps, 32 rows 27 and 52 rows or more 16.  Long chunks pay
the per-chunk calls less often; short ones retire fired rows sooner,
so they build fewer steps past a row's first spike.

When a precondition fails (no CSR kernel, or one that fails the
:func:`~repro.snn.batched.leak_scan_kernel` probe, negative weights or
modulation, decay outside ``[0, 1)``, non-positive thresholds, mixed
durations, a spike input outside the weight matrix)
:func:`readout_winners` falls back to :func:`batch_winners` wholesale;
the scan never runs "approximately".  The checks that read only the
network, and the contiguous transposed weights, are a
:class:`ScanOperands`: the plan executor builds one per plan, whose
constants are read-only, while a writable network (a trainer's, the
continual learner's) gets fresh ones on every readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

#: Target bytes of one chunk's buffer (live rows x steps x neurons).
_BLOCK_BYTES = 2 << 20

#: Bounds on the steps per chunk.  Above 64 the chunk builds too many
#: steps past a row's first spike; below 16 the per-chunk calls
#: dominate.  On the 300-neuron digits model at 75 to 300 rows, a
#: floor of 8, 12 or 24 steps, a 3 or 4 MB target and a fixed 24 or 32
#: steps each timed within noise of these values or slower.
_MIN_SPAN = 16
_MAX_SPAN = 64


@dataclass(frozen=True)
class ScanOperands:
    """What the scan reads from a network, or why it cannot run.

    Depends on the network alone, never on the trains, so a network
    whose arrays are read-only (a compiled plan's) can build it once
    and keep it.  ``refusal`` is ``None`` when the network clears every
    train-independent precondition; the other fields are set only then.
    """

    refusal: Optional[str]
    kernel: Any = None
    weights_t: Optional[np.ndarray] = None
    thresholds: Optional[np.ndarray] = None
    decay: float = 0.0

    @classmethod
    def of(cls, network) -> "ScanOperands":
        from ...snn.batched import csr_matvecs_kernel, leak_scan_kernel

        kernel = leak_scan_kernel()
        if kernel is None:
            if csr_matvecs_kernel() is None:
                return cls("scipy.sparse CSR kernel unavailable")
            return cls("CSR kernel fails the in-place recurrence probe")
        weights = np.asarray(network.weights)
        if not np.all(weights >= 0):
            return cls("negative synaptic weights")
        thresholds = np.asarray(network.thresholds, dtype=np.float64)
        if not np.all(thresholds > 0):
            return cls("non-positive firing thresholds")
        decay = float(network.lif_parameters.decay_factor(1.0))
        if not 0.0 <= decay < 1.0:
            return cls(f"decay factor {decay} outside [0, 1)")
        return cls(
            None,
            kernel,
            np.ascontiguousarray(weights.T, dtype=np.float64),
            thresholds,
            decay,
        )

    def train_refusal(self, trains: Sequence[Any]) -> Optional[str]:
        """Why the scan cannot read these trains (``None`` = it can)."""
        if not trains:
            return None  # empty batch: trivially handled
        duration = trains[0].duration
        n_inputs = trains[0].n_inputs
        for train in trains:
            if train.duration != duration or train.n_inputs != n_inputs:
                return "trains with mixed duration/n_inputs"
            if train.n_spikes and not np.all(train.modulation >= 0):
                return "negative spike modulation"
        if int(n_inputs) != self.weights_t.shape[0]:
            return "train width does not match the weight matrix"
        # The CSR kernel takes spike inputs as raw column indices and
        # does not bound-check them; NumPy indexing in the grid does.
        inputs = np.concatenate([train.inputs for train in trains])
        if inputs.size and (inputs.min() < 0 or inputs.max() >= n_inputs):
            return "spike input outside the weight matrix"
        return None


def scan_refusal(
    network,
    trains: Sequence[Any],
    operands: Optional[ScanOperands] = None,
) -> Optional[str]:
    """Why the scan cannot be used for this readout (``None`` = it can).

    Every condition is a *bit-identity precondition*, not a
    performance heuristic; see the module docstring.  ``operands``
    defaults to ``ScanOperands.of(network)``.
    """
    if operands is None:
        operands = ScanOperands.of(network)
    return operands.refusal or operands.train_refusal(trains)


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
    network, trains: Sequence[Any], operands: ScanOperands
) -> np.ndarray:
    """First-spike/max-potential readout, bitwise ``batch_winners``.

    ``operands`` are ``network``'s.  Callers must have cleared
    :func:`scan_refusal` with them first; the scan assumes its
    preconditions and does not re-check them.
    """
    from ...snn.batched import leak_scan

    B = len(trains)
    winners = np.full(B, -1, dtype=np.int64)
    if not B:
        return winners

    kernel = operands.kernel
    thresholds = operands.thresholds
    decay = operands.decay
    n_inputs, n_neurons = operands.weights_t.shape
    flat_weights = operands.weights_t.reshape(-1)
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
        n_live = live.size
        span = _BLOCK_BYTES // (8 * n_neurons * n_live)
        t1 = min(t0 + min(max(span, _MIN_SPAN), _MAX_SPAN), t_active)
        span = t1 - t0
        lo = np.searchsorted(key, live * np.int64(T) + t0)
        hi = np.searchsorted(key, live * np.int64(T) + t1)
        sel, per_row = _multi_arange(lo, hi)
        blocks = np.empty((n_live, span + 1, n_neurons))
        blocks[:, 0] = potentials
        blocks[:, 1:] = 0.0
        if sel.size:
            # Row 0 of each block takes no spikes: cell = block start
            # + 1 + local step.
            cell = np.repeat(
                np.arange(n_live, dtype=np.int64) * (span + 1) + 1, per_row
            ) + (step[sel] - t0)
            cell_counts = np.bincount(cell, minlength=n_live * (span + 1))
            indptr = np.empty(n_live * (span + 1) + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(cell_counts, out=indptr[1:])
            kernel(
                n_live * (span + 1),
                n_inputs,
                n_neurons,
                indptr,
                inputs[sel],
                modulation[sel],
                flat_weights,
                blocks.reshape(-1),
            )
        leak_scan(kernel, blocks, decay)
        steps = blocks[:, 1:]
        # A row fires in this chunk iff some neuron's largest potential
        # over its steps reaches the threshold (fmax skips NaN, as the
        # comparison does); only those rows get the per-step check.
        fired = (np.fmax.reduce(steps, axis=1) >= thresholds).any(axis=1)
        if fired.any():
            rows_fired = np.flatnonzero(fired)
            hit = (steps[rows_fired] >= thresholds).any(axis=2)
            first = np.argmax(hit, axis=1)
            scores = steps[rows_fired, first]
            overshoot = np.where(
                scores >= thresholds, scores - thresholds, -np.inf
            )
            winners[live[rows_fired]] = np.argmax(overshoot, axis=1)
            live = live[~fired]
            potentials = steps[~fired, -1]
        else:
            potentials = steps[:, -1]
        t0 = t1
    if live.size:
        # Decay tail for rows that never fire: the grid keeps decaying
        # them through the spike-free remainder of the presentation
        # before its max-potential fallback readout.
        potentials = np.array(potentials)
        for _ in range(t0, T):
            np.multiply(potentials, decay, out=potentials)
        winners[live] = np.argmax(potentials, axis=1)
    return winners


def readout_winners(
    network,
    trains: Sequence[Any],
    operands: Optional[ScanOperands] = None,
) -> np.ndarray:
    """First-spike/max-potential winners: the scan, else the batched grid.

    Runs :func:`scan_winners` when the trains clear every precondition
    and :func:`~repro.snn.batched.batch_winners` otherwise; both read
    out the same bits.  ``operands`` defaults to
    ``ScanOperands.of(network)``, built afresh: pass kept operands only
    for a network whose weights and thresholds cannot change.  The plan
    executor's LIF step (with its per-plan operands),
    :meth:`~repro.snn.network.SNNTrainer.label` and the continual
    learner's relabel pass read winners here.
    """
    from ...snn.batched import DEFAULT_BATCH_SIZE, batch_winners

    if operands is None:
        operands = ScanOperands.of(network)
    if scan_refusal(network, trains, operands) is None:
        return scan_winners(network, trains, operands)
    return batch_winners(network, trains, batch_size=DEFAULT_BATCH_SIZE)
