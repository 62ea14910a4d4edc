"""Live continual learning with guarded hot-swap promotion.

The paper's central tension — STDP learns *online*, but online
learning "raises the problem of retention of earlier memories" — is
usually studied offline (:mod:`repro.snn.retention`).  This module
runs it **live**: a serving tenant keeps learning from a labeled
stream while traffic flows, and every learning step must clear the
same robustness bar the rest of the serving stack holds itself to.

The loop, per bounded window (the :func:`repro.snn.retention.window_bounds`
schedule):

1. **Ingest** — :class:`LabeledStream` draws a seeded window of
   (image, label) pairs; chaos scenarios can blend covariate drift
   into the images or flip the labels.
2. **Learn** — a *candidate* network (a clone of the current learning
   state; the serving model is never mutated in place) takes the
   window through the fused STDP engine, then refreshes its neuron
   labels from the decayed win-count state (:class:`_LabelState`).
3. **Version** — the candidate is snapshotted through the
   content-addressed :class:`~repro.core.artifacts.ModelCache` under a
   monotonically increasing epoch, with the standard SHA-256 integrity
   sidecar (:class:`SnapshotStore`).
4. **Gate** — shadow evaluation: candidate and live model both score
   the window's held-out shadow slice; the candidate is promoted only
   if it retains at least ``gate_retention`` of the live accuracy
   (:class:`LearnerSLO`).
5. **Hot-swap** — promotion swaps the serving weights without
   dropping a single request: in-process backends swap the runner
   reference atomically, pool backends roll shard slots one at a time
   through :meth:`~repro.serve.workers.ShardedPool.hot_swap` (planned
   retirements the supervisor respawns without crash bookkeeping).
6. **Guard + rollback** — after promotion the new model is probed on
   a *fixed* held-out probe set; if accuracy falls below
   ``rollback_retention`` of the last good epoch's, the learner
   swaps straight back to the last good snapshot — restoring the
   baseline bit-for-bit within the same window.

:func:`run_learn_serve` is the CLI / chaos driver: it serves the
learning tenant next to an untouched tenant, drives both with
ledger-audited clients (every request resolves exactly once), runs
the scenario's windows, and asserts the learning-time invariants —
zero lost / duplicated requests across swaps, bit-identical serving
for the untouched tenant, and rollback-restores-baseline.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.artifacts import ModelCache, cache_key
from ..core.errors import ServingError
from ..core.hostinfo import host_metadata
from ..core.rng import child_rng
from ..core.serialization import load_model, save_model
from ..datasets.base import Dataset
from ..faults.injector import FaultInjector
from ..faults.models import FaultConfig
from ..snn.batched import encode_shared, predict_batch
from ..snn.network import SpikingNetwork
from ..snn.training import FusedSTDPEngine
from .batcher import BatchPolicy
from .engine import InferenceServer

#: Serving name of the continually learning tenant.
LIVE_TENANT = "live"

#: Cache recipe tag for live-learning snapshots (bump on rule changes).
SNAPSHOT_RECIPE = "live-stdp-v1"


# ---------------------------------------------------------------------------
# SLOs and scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerSLO:
    """Accuracy-retention SLOs guarding promotion and serving.

    Attributes:
        gate_retention: shadow-gate bar — the candidate must retain at
            least this fraction of the live model's accuracy on the
            window's shadow slice to be promoted.
        gate_tolerance: absolute slack added to both the shadow gate
            and the post-promotion guard, so a one-sample wobble on a
            small shadow slice does not flap the gate.
        rollback_retention: post-promotion bar — the promoted model
            must retain at least this fraction of the last good
            epoch's accuracy on the *fixed* probe set, else the
            learner rolls back automatically.
    """

    gate_retention: float = 0.9
    gate_tolerance: float = 0.02
    rollback_retention: float = 0.8

    def validate(self) -> "LearnerSLO":
        for name in ("gate_retention", "rollback_retention"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ServingError(f"LearnerSLO.{name}={value} must be in [0, 1]")
        if self.gate_tolerance < 0.0:
            raise ServingError(
                f"gate_tolerance must be >= 0, got {self.gate_tolerance}"
            )
        return self

    def as_dict(self) -> Dict[str, float]:
        return {
            "gate_retention": self.gate_retention,
            "gate_tolerance": self.gate_tolerance,
            "rollback_retention": self.rollback_retention,
        }


@dataclass(frozen=True)
class LearningScenario:
    """A deterministic schedule of learning windows and stream faults.

    The learning-time counterpart of
    :class:`~repro.serve.chaos.ChaosScenario`: instead of killing
    shards it perturbs the *stream* (covariate drift, label flips) or
    the *weight updates* (SRAM bit errors between STDP windows), and
    the invariants shift from "answers never change" to "promotions
    never lose requests and bad promotions roll back".

    Attributes:
        scenario_id: the ``--chaos`` identifier.
        description: one-line human summary.
        windows: learning windows to run.
        window_size: stream samples per window.
        shadow_fraction: tail fraction of each window held out for the
            shadow gate (never trained on).
        jobs: shard processes (0 = in-process serving).
        concurrency: ledger client threads per tenant.
        drift_windows / drift_magnitude: windows whose images blend
            ``magnitude`` of deterministic noise (covariate shift).
        flip_windows: windows whose labels are cyclically flipped.
        ber_windows / weight_ber: windows whose candidate weights pass
            through an SRAM bit-error injector before labeling.
        slo: the promotion / rollback SLOs.
        min_hot_swaps: invariant floor on completed hot-swaps.
        expect_rollback: invariant requires at least one rollback.
        n_neurons / train_images / train_epochs: offline baseline of
            the live tenant (see ``build_live_learner_model``).
        probe_images: size of the fixed post-promotion probe set.
    """

    scenario_id: str
    description: str
    windows: int = 4
    window_size: int = 32
    shadow_fraction: float = 0.25
    jobs: int = 2
    concurrency: int = 4
    drift_windows: Tuple[int, ...] = ()
    drift_magnitude: float = 0.0
    flip_windows: Tuple[int, ...] = ()
    ber_windows: Tuple[int, ...] = ()
    weight_ber: float = 0.0
    slo: LearnerSLO = field(default_factory=LearnerSLO)
    min_hot_swaps: int = 0
    expect_rollback: bool = False
    n_neurons: int = 30
    train_images: int = 400
    train_epochs: int = 2
    probe_images: int = 64

    def validate(self) -> "LearningScenario":
        if self.windows < 1:
            raise ServingError(f"windows must be >= 1, got {self.windows}")
        if self.window_size < 2:
            raise ServingError(
                f"window_size must be >= 2, got {self.window_size}"
            )
        if not 0.0 <= self.shadow_fraction < 1.0:
            raise ServingError(
                f"shadow_fraction must be in [0, 1), got {self.shadow_fraction}"
            )
        if self.jobs < 0:
            raise ServingError(f"jobs must be >= 0, got {self.jobs}")
        if self.concurrency < 1:
            raise ServingError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not 0.0 <= self.drift_magnitude <= 1.0:
            raise ServingError(
                f"drift_magnitude must be in [0, 1], got {self.drift_magnitude}"
            )
        if not 0.0 <= self.weight_ber <= 1.0:
            raise ServingError(
                f"weight_ber must be in [0, 1], got {self.weight_ber}"
            )
        for name in ("drift_windows", "flip_windows", "ber_windows"):
            for w in getattr(self, name):
                if not 0 <= int(w) < self.windows:
                    raise ServingError(
                        f"{name} entry {w} outside 0..{self.windows - 1}"
                    )
        self.slo.validate()
        return self


# ---------------------------------------------------------------------------
# The labeled stream (with chaos hooks)
# ---------------------------------------------------------------------------


class LabeledStream:
    """Seeded labeled sample stream with drift / label-flip hooks.

    Windows are drawn with replacement from the backing dataset via
    ``child_rng(seed, "learn-stream")`` — the retention-study scheme —
    so the *clean* stream is a pure function of (dataset, seed,
    windows drawn).  Chaos toggles:

    * ``drift_magnitude`` > 0 blends each image toward deterministic
      per-window noise (``child_rng(seed, "learn-drift", window)``) —
      covariate shift with unchanged labels;
    * ``flip_labels`` rotates every label by one class — a label
      poisoning burst.

    Both leave the index stream untouched, so toggling a fault never
    perturbs which samples later windows see.
    """

    def __init__(self, dataset: Dataset, window_size: int = 32, seed: int = 0):
        if len(dataset) < 1:
            raise ServingError("stream needs a non-empty dataset")
        if window_size < 1:
            raise ServingError(f"window_size must be >= 1, got {window_size}")
        self.dataset = dataset
        self.window_size = int(window_size)
        self.seed = int(seed)
        self.n_labels = int(np.max(dataset.labels)) + 1
        self.drift_magnitude = 0.0
        self.flip_labels = False
        self.windows_drawn = 0
        self._order_rng = child_rng(self.seed, "learn-stream")
        self._image_high = max(float(np.max(dataset.images)), 1.0)

    def next_window(self) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Draw one window: ``(images, labels, dataset indices)``."""
        window = self.windows_drawn
        self.windows_drawn += 1
        indices = self._order_rng.choice(
            len(self.dataset), size=self.window_size, replace=True
        )
        images = np.array(self.dataset.images[indices], dtype=np.float64)
        labels = np.array(self.dataset.labels[indices], dtype=np.int64)
        if self.drift_magnitude > 0.0:
            noise_rng = child_rng(self.seed, "learn-drift", window)
            noise = noise_rng.uniform(0.0, self._image_high, size=images.shape)
            m = float(self.drift_magnitude)
            images = np.clip(
                (1.0 - m) * images + m * noise, 0.0, self._image_high
            )
        if self.flip_labels:
            labels = (labels + 1) % self.n_labels
        return images, labels, [int(i) for i in indices]


# ---------------------------------------------------------------------------
# Decayed win-count labeling state
# ---------------------------------------------------------------------------


class _LabelState:
    """Neuron-labeling win counts with exponential recency decay.

    A single learning window is far too small to relabel a network
    from scratch (most neurons never win inside one window and would
    drop to label -1), so the learner carries labeling state *across*
    windows: float win-count matrices in the
    :class:`~repro.snn.labeling.NeuronLabeler` shape, decayed by
    ``decay`` per window so a non-stationary stream can genuinely
    move labels.  Seeded from the offline model's labels as
    pseudo-counts; cloned per candidate and reverted together with
    the weights on gate rejection or rollback.
    """

    def __init__(self, n_neurons: int, n_labels: int, decay: float = 0.5):
        if not 0.0 <= decay <= 1.0:
            raise ServingError(f"decay must be in [0, 1], got {decay}")
        self.decay = float(decay)
        self.counts = np.zeros((n_neurons, n_labels), dtype=np.float64)
        self.presentations = np.zeros(n_labels, dtype=np.float64)

    @classmethod
    def from_labels(
        cls,
        labels: np.ndarray,
        n_labels: int,
        decay: float = 0.5,
        weight: float = 3.0,
    ) -> "_LabelState":
        """Seed pseudo-counts from an existing label assignment."""
        labels = np.asarray(labels)
        state = cls(len(labels), n_labels, decay=decay)
        for neuron, label in enumerate(labels):
            if 0 <= int(label) < n_labels:
                state.counts[neuron, int(label)] = float(weight)
                state.presentations[int(label)] += float(weight)
        return state

    def clone(self) -> "_LabelState":
        twin = _LabelState(*self.counts.shape, decay=self.decay)
        twin.counts = self.counts.copy()
        twin.presentations = self.presentations.copy()
        return twin

    def observe(self, winners: Sequence[int], labels: Sequence[int]) -> None:
        """Fold one window of (winner, label) pairs in, decaying first."""
        self.counts *= self.decay
        self.presentations *= self.decay
        for winner, label in zip(winners, labels):
            label = int(label)
            self.presentations[label] += 1.0
            if int(winner) >= 0:
                self.counts[int(winner), label] += 1.0

    def labels(self, prior: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-neuron labels (NeuronLabeler semantics, decayed counts).

        Neurons with no surviving win mass keep their ``prior`` label
        (or -1 without one) — a neuron that simply did not fire this
        window has not earned a relabeling.
        """
        scores = self.counts / np.maximum(self.presentations, 1.0)[None, :]
        assigned = np.argmax(scores, axis=1).astype(np.int64)
        silent = ~np.any(self.counts > 0.0, axis=1)
        if prior is not None:
            assigned[silent] = np.asarray(prior, dtype=np.int64)[silent]
        else:
            assigned[silent] = -1
        return assigned


def clone_network(network: SpikingNetwork) -> SpikingNetwork:
    """Independent copy of a trained SNN (weights, thresholds, labels).

    The serving / learning separation hinges on this: the server's
    runner must hold arrays the learner will never mutate, and each
    candidate must be discardable without touching the last good
    state.  The coder is shared (stateless: it draws only from RNGs
    passed per call).
    """
    twin = SpikingNetwork(network.config, coder=network.coder)
    twin.weights = np.array(network.weights, dtype=np.float64)
    twin.population.thresholds[:] = np.asarray(network.thresholds)
    twin.neuron_labels = (
        None
        if network.neuron_labels is None
        else np.array(network.neuron_labels, dtype=np.int64)
    )
    return twin


# ---------------------------------------------------------------------------
# Versioned snapshots through the content-addressed cache
# ---------------------------------------------------------------------------


class LiveSnapshotCache(ModelCache):
    """The default snapshot store: ``<cache root>/live-snapshots/``.

    Its entries sit under the cache root, so the root's one size bound
    (``REPRO_CACHE_MAX_BYTES``) counts and evicts them with every other
    entry, whichever store writes next.
    """

    SUBDIR = "live-snapshots"


class SnapshotStore:
    """Epoch-versioned model snapshots in a :class:`ModelCache`.

    Every promoted (and the baseline) network is stored under the
    content-addressed key of its *actual arrays* — weights, thresholds
    and labels are hashed into the key — plus the tenant and a
    monotonically increasing epoch, so two epochs can never collide
    and a stale entry can never shadow fresh weights.  The cache owns
    the write (SHA-256 sidecar included) and the verified read;
    :meth:`load` treats an evicted or corrupt entry as a lost epoch.
    """

    def __init__(self, cache: ModelCache, tenant: str, dataset: Dataset):
        self.cache = cache
        self.tenant = str(tenant)
        self.dataset = dataset
        self._keys: Dict[int, str] = {}

    def _params(self, epoch: int, network: SpikingNetwork) -> Dict[str, Any]:
        return {
            "recipe": SNAPSHOT_RECIPE,
            "tenant": self.tenant,
            "epoch": int(epoch),
            "weights": network.weights,
            "thresholds": np.asarray(network.thresholds),
            "labels": np.asarray(
                network.neuron_labels
                if network.neuron_labels is not None
                else []
            ),
        }

    def save(self, epoch: int, network: SpikingNetwork) -> str:
        """Persist one epoch's snapshot; returns its cache key."""
        epoch = int(epoch)
        if self._keys and epoch <= max(self._keys):
            raise ServingError(
                f"snapshot epochs must increase; {epoch} <= {max(self._keys)}"
            )
        params = self._params(epoch, network)
        key = cache_key("snn-live", network.config, self.dataset, params)
        self.cache.write(key, network, save_model)
        self._keys[epoch] = key
        return key

    def load(self, epoch: int) -> SpikingNetwork:
        """Rebuild one epoch's network after sidecar verification.

        Raises :class:`ServingError` for unknown, evicted or corrupt
        epochs — callers fall back to their in-memory last-good copy.
        """
        key = self._keys.get(int(epoch))
        if key is None:
            raise ServingError(f"no snapshot recorded for epoch {epoch}")
        network = self.cache.read(key, load_model)
        if network is None:
            raise ServingError(
                f"snapshot for epoch {epoch} was evicted, failed its digest "
                "or is unreadable"
            )
        return network

    def epochs(self) -> List[int]:
        return sorted(self._keys)

    def key_for(self, epoch: int) -> Optional[str]:
        return self._keys.get(int(epoch))


# ---------------------------------------------------------------------------
# The continual learner
# ---------------------------------------------------------------------------


class ContinualLearner:
    """One tenant's learn → gate → promote → guard → rollback loop."""

    def __init__(
        self,
        server: InferenceServer,
        tenant: str,
        network: SpikingNetwork,
        stream: LabeledStream,
        probe_set: Dataset,
        slo: Optional[LearnerSLO] = None,
        store: Optional[SnapshotStore] = None,
        seed: int = 0,
        shadow_fraction: float = 0.25,
        label_decay: float = 0.5,
        probe_indices: Optional[Sequence[int]] = None,
        update_injector: Optional[FaultInjector] = None,
    ):
        if network.neuron_labels is None:
            raise ServingError("the live tenant needs a labeled baseline")
        if not 0.0 <= shadow_fraction < 1.0:
            raise ServingError(
                f"shadow_fraction must be in [0, 1), got {shadow_fraction}"
            )
        if len(probe_set) < 1:
            raise ServingError("probe set must be non-empty")
        self.server = server
        self.tenant = str(tenant)
        self.stream = stream
        self.probe = probe_set
        self.slo = (slo or LearnerSLO()).validate()
        self.store = store
        self.seed = int(seed)
        self.shadow_fraction = float(shadow_fraction)
        self.update_injector = update_injector
        self._probe_indices = (
            list(range(len(probe_set)))
            if probe_indices is None
            else [int(i) for i in probe_indices]
        )
        # Learning state (mutable); the serving model is always a clone.
        self.network = clone_network(network)
        self._label_state = _LabelState.from_labels(
            np.asarray(network.neuron_labels),
            network.config.n_labels,
            decay=label_decay,
        )
        # Shared streams: window composition comes from the stream's
        # own RNG; learning spikes and labeling spikes each consume
        # one shared generator, the retention-study scheme.
        self._spikes_rng = child_rng(self.seed, "learn-serve-spikes")
        self._label_rng = child_rng(self.seed, "learn-serve-label")
        # Counters / state surfaced through metrics + health.
        self.epoch = 0
        self.serving_epoch = 0
        self.last_good_epoch = 0
        self.windows = 0
        self.promotions = 0
        self.rejections = 0
        self.rollbacks = 0
        self.hot_swaps = 0
        self.staleness = 0
        self.last_rollback: Optional[Dict[str, Any]] = None
        self.rollbacks_restored = True
        self.history: List[Dict[str, Any]] = []
        # Baseline: snapshot epoch 0 and measure the fixed probe.
        baseline = clone_network(self.network)
        self._last_good_network = baseline
        if self.store is not None:
            self.store.save(0, baseline)
        self.last_good_probe_accuracy = self._probe_accuracy(baseline)

    # -- evaluation helpers ---------------------------------------------

    def _probe_accuracy(self, network: SpikingNetwork) -> float:
        """Accuracy on the fixed probe set (per-index deterministic)."""
        predictions = predict_batch(
            network,
            np.asarray(self.probe.images),
            indices=self._probe_indices,
            seed=self.seed,
        )
        return float(np.mean(predictions == np.asarray(self.probe.labels)))

    @staticmethod
    def _shadow_accuracy(
        network: SpikingNetwork,
        images: np.ndarray,
        labels: np.ndarray,
        indices: Sequence[int],
        seed: int,
    ) -> float:
        predictions = predict_batch(
            network, images, indices=indices, seed=seed
        )
        return float(np.mean(predictions == labels))

    # -- the window loop -------------------------------------------------

    def run_window(self) -> Dict[str, Any]:
        """Run one learning window end to end; returns its record."""
        window = self.windows
        self.windows += 1
        images, labels, indices = self.stream.next_window()
        record: Dict[str, Any] = {
            "window": window,
            "n_images": int(len(images)),
            "drift": float(self.stream.drift_magnitude),
            "flipped": bool(self.stream.flip_labels),
            "ber": bool(
                self.update_injector is not None
                and self.update_injector.config.affects_weights
            ),
        }
        n_shadow = (
            max(1, int(round(len(images) * self.shadow_fraction)))
            if self.shadow_fraction > 0.0 and len(images) > 1
            else 0
        )
        split = len(images) - n_shadow
        train_images, train_labels = images[:split], labels[:split]
        shadow_images, shadow_labels = images[split:], labels[split:]
        shadow_indices = indices[split:]

        # 1. Candidate: clone, learn the window, optional SRAM faults.
        candidate = clone_network(self.network)
        if len(train_images):
            FusedSTDPEngine(candidate).learn_images(
                train_images, rng=self._spikes_rng
            )
        if (
            self.update_injector is not None
            and self.update_injector.config.affects_weights
        ):
            candidate.weights = self.update_injector.corrupt_weights(
                candidate.weights, f"live-update-{window}"
            )
        # 2. Relabel from the decayed win-count state.
        label_state = self._label_state.clone()
        if len(train_images):
            from ..ir.backends.lif_scan import readout_winners  # local: avoids eager import

            trains = encode_shared(candidate, train_images, self._label_rng)
            winners = readout_winners(candidate, trains)
            label_state.observe([int(w) for w in winners], train_labels)
        candidate.neuron_labels = label_state.labels(
            prior=np.asarray(self.network.neuron_labels)
        )

        # 3. Shadow gate: candidate vs live on the held-out slice.
        if n_shadow:
            candidate_acc = self._shadow_accuracy(
                candidate, shadow_images, shadow_labels, shadow_indices, self.seed
            )
            live_acc = self._shadow_accuracy(
                self._last_good_network,
                shadow_images,
                shadow_labels,
                shadow_indices,
                self.seed,
            )
        else:
            candidate_acc = live_acc = 1.0
        record["shadow"] = {
            "n": int(n_shadow),
            "candidate_accuracy": round(candidate_acc, 4),
            "live_accuracy": round(live_acc, 4),
        }
        gate_ok = (
            candidate_acc + self.slo.gate_tolerance
            >= self.slo.gate_retention * live_acc
        )
        if not gate_ok:
            self.rejections += 1
            self.staleness += 1
            record["outcome"] = "rejected"
            self.history.append(record)
            return record

        # 4. Promote: version the snapshot, hot-swap serving.
        self.epoch += 1
        serving = clone_network(candidate)
        if self.store is not None:
            record["snapshot_key"] = self.store.save(self.epoch, serving)
        swap = self.server.swap_model(self.tenant, serving, seed=self.seed)
        self.hot_swaps += 1
        self.promotions += 1
        self.serving_epoch = self.epoch
        record["swap"] = swap

        # 5. Post-promotion guard on the fixed probe set.
        probe_acc = self._probe_accuracy(serving)
        record["probe_accuracy"] = round(probe_acc, 4)
        breach = (
            probe_acc + self.slo.gate_tolerance
            < self.slo.rollback_retention * self.last_good_probe_accuracy
        )
        if breach:
            self._rollback(record, probe_acc)
            record["outcome"] = "rolled-back"
        else:
            self.network = candidate
            self._label_state = label_state
            self._last_good_network = serving
            self.last_good_epoch = self.epoch
            self.last_good_probe_accuracy = probe_acc
            self.staleness = 0
            record["outcome"] = "promoted"
        self.history.append(record)
        return record

    def _rollback(self, record: Dict[str, Any], bad_probe_acc: float) -> None:
        """Swap serving back to the last good epoch, revert learning."""
        failed_epoch = self.epoch
        target = self.last_good_epoch
        restored: Optional[SpikingNetwork] = None
        source = "snapshot"
        if self.store is not None:
            try:
                restored = self.store.load(target)
            except ServingError:
                restored = None
        if restored is None:
            # Snapshot evicted or corrupt: the in-memory last-good
            # copy carries identical arrays.
            restored = clone_network(self._last_good_network)
            source = "memory"
        self.server.swap_model(self.tenant, restored, seed=self.seed)
        self.hot_swaps += 1
        self.rollbacks += 1
        self.serving_epoch = target
        self.staleness += 1
        # Learning state reverts with serving: weights AND label state.
        self.network = clone_network(restored)
        self._label_state = self._label_state_of_last_good()
        restored_acc = self._probe_accuracy(restored)
        exact = restored_acc == self.last_good_probe_accuracy
        self.rollbacks_restored = self.rollbacks_restored and exact
        self._last_good_network = restored
        self.last_rollback = {
            "window": record["window"],
            "from_epoch": failed_epoch,
            "to_epoch": target,
            "breach_accuracy": round(bad_probe_acc, 4),
            "restored_accuracy": round(restored_acc, 4),
            "last_good_accuracy": round(self.last_good_probe_accuracy, 4),
            "baseline_restored": exact,
            "source": source,
        }
        record["rollback"] = self.last_rollback

    def _label_state_of_last_good(self) -> _LabelState:
        """Label state consistent with the last good network."""
        return _LabelState.from_labels(
            np.asarray(self._last_good_network.neuron_labels),
            self._last_good_network.config.n_labels,
            decay=self._label_state.decay,
        )

    # -- introspection ---------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """JSON-ready learner state for metrics / health / CLI."""
        return {
            "tenant": self.tenant,
            "epoch": self.epoch,
            "serving_epoch": self.serving_epoch,
            "last_good_epoch": self.last_good_epoch,
            "windows": self.windows,
            "promotions": self.promotions,
            "rejections": self.rejections,
            "rollbacks": self.rollbacks,
            "hot_swaps": self.hot_swaps,
            "staleness": self.staleness,
            "probe_accuracy": round(self.last_good_probe_accuracy, 4),
            "rollbacks_restored": self.rollbacks_restored,
            "last_rollback": self.last_rollback,
            "slo": self.slo.as_dict(),
            "snapshots": (
                {
                    "epochs": self.store.epochs(),
                    "cache": self.store.cache.stats.as_dict(),
                }
                if self.store is not None
                else None
            ),
        }

    def health(self) -> Dict[str, Any]:
        """Compact learner block for the ``serve-health`` payload."""
        return {
            "epoch": self.epoch,
            "serving_epoch": self.serving_epoch,
            "staleness": self.staleness,
            "rollbacks": self.rollbacks,
            "last_rollback_epoch": (
                self.last_rollback["from_epoch"] if self.last_rollback else None
            ),
            "retention_slo_ok": self.rollbacks_restored,
        }


# ---------------------------------------------------------------------------
# Driver: serve two tenants, learn on one, audit every request
# ---------------------------------------------------------------------------


def _ledger_clients(
    server: InferenceServer,
    tenants: Dict[str, Optional[np.ndarray]],
    n_indices: int,
    concurrency: int,
    seed: int,
    stop_event: threading.Event,
    timeout: float = 60.0,
):
    """Start ledger-audited closed-loop clients for every tenant.

    Returns ``(ledgers, threads)``; the caller sets ``stop_event`` and
    joins.  A tenant with an oracle array gets per-request bit-identity
    checks; ``None`` skips them (the learning tenant's answers change
    by design across promotions).
    """
    from .chaos import _Ledger

    ledgers = {name: _Ledger() for name in tenants}

    def client(name: str, oracle: Optional[np.ndarray], cid: int) -> None:
        ledger = ledgers[name]
        rng = child_rng(seed, f"learn-client-{name}", cid)
        while not stop_event.is_set():
            index = int(rng.integers(n_indices))
            ledger.open_request()
            try:
                label = server.predict(name, index=index, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 — typed or injected
                ledger.resolve_error(exc, first=True)
                continue
            matched = oracle is None or label == int(oracle[index])
            ledger.resolve_ok(matched=matched, first=True)

    threads = [
        threading.Thread(
            target=client,
            args=(name, oracle, cid),
            name=f"repro-learn-client-{name}-{cid}",
            daemon=True,
        )
        for name, oracle in tenants.items()
        for cid in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    return ledgers, threads


def run_learn_serve(
    scenario: "str | LearningScenario" = "steady",
    dataset: str = "digits",
    seed: int = 0,
    jobs: Optional[int] = None,
    windows: Optional[int] = None,
    window_size: Optional[int] = None,
    concurrency: Optional[int] = None,
    max_batch: int = 8,
    max_wait_us: float = 1000.0,
    max_queue: int = 1024,
    snapshot_dir: Optional[str] = None,
    recovery_timeout: float = 15.0,
) -> Dict[str, Any]:
    """Run one live-learning scenario end to end; returns the payload.

    Serves the learning tenant (``live``) next to an untouched tenant
    (``mlp``) — the latter with a bit-identity oracle, because nothing
    the learner does may ever change another tenant's answers.  Every
    request on both tenants goes through the chaos ledger, so lost or
    duplicated requests across hot-swaps are impossible to miss.
    """
    from .chaos import _await_recovery, get_learning_scenario
    from .loadgen import (
        build_live_learner_model,
        build_models,
        direct_predictions,
    )

    if isinstance(scenario, str):
        scenario = get_learning_scenario(scenario)
    scenario = scenario.validate()
    overrides: Dict[str, Any] = {}
    if jobs is not None:
        overrides["jobs"] = int(jobs)
    if windows is not None:
        overrides["windows"] = int(windows)
    if window_size is not None:
        overrides["window_size"] = int(window_size)
    if concurrency is not None:
        overrides["concurrency"] = int(concurrency)
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides).validate()

    built = build_models(("mlp",), dataset=dataset)
    live_base = build_live_learner_model(
        dataset,
        n_neurons=scenario.n_neurons,
        epochs=scenario.train_epochs,
        train_images=scenario.train_images,
        seed=seed,
    )
    train_set, test_set = built["train"], built["test"]
    test_images = np.asarray(test_set.images)
    probe_n = min(scenario.probe_images, len(test_set))
    probe_set = test_set.take(probe_n)
    probe_indices = list(range(probe_n))
    mlp_oracle = np.asarray(
        direct_predictions(
            built["models"]["mlp"],
            test_images,
            list(range(len(test_images))),
            seed=seed,
        )
    )
    serving_models = {
        "mlp": built["models"]["mlp"],
        LIVE_TENANT: clone_network(live_base),
    }
    policy = BatchPolicy(
        max_batch=max_batch, max_wait_us=max_wait_us, max_queue=max_queue
    )
    pool = None
    if scenario.jobs >= 1:
        from .supervisor import SupervisorPolicy
        from .workers import ShardedPool

        pool = ShardedPool(
            serving_models,
            jobs=scenario.jobs,
            images=test_images,
            seed=seed,
            max_task_retries=2,
            supervisor=SupervisorPolicy(
                poll_interval=0.05,
                backoff_base=0.05,
                backoff_max=0.5,
                cooldown=1.0,
                ready_timeout=60.0,
                seed=seed,
            ),
        )
        server = InferenceServer(pool=pool, policy=policy, images=test_images)
    else:
        server = InferenceServer.from_models(
            serving_models, policy=policy, images=test_images, seed=seed
        )

    cache = (
        ModelCache(snapshot_dir) if snapshot_dir is not None else LiveSnapshotCache()
    )
    store = SnapshotStore(cache, LIVE_TENANT, probe_set)
    stream = LabeledStream(
        train_set, window_size=scenario.window_size, seed=seed
    )
    injector = (
        FaultInjector(FaultConfig.sram_ber(scenario.weight_ber, seed=seed))
        if scenario.weight_ber > 0.0 and scenario.ber_windows
        else None
    )
    payload: Dict[str, Any] = {
        "loadtest": {
            "mode": "learn-serve",
            "dataset": dataset,
            "models": sorted(serving_models),
            "jobs": scenario.jobs,
            "windows": scenario.windows,
            "window_size": scenario.window_size,
            "concurrency": scenario.concurrency,
            "seed": seed,
            "n_test_images": int(len(test_images)),
        },
        "host": host_metadata(),
        "models": {},
    }
    stop_event = threading.Event()
    threads: List[threading.Thread] = []
    try:
        learner = ContinualLearner(
            server,
            LIVE_TENANT,
            live_base,
            stream,
            probe_set,
            slo=scenario.slo,
            store=store,
            seed=seed,
            shadow_fraction=scenario.shadow_fraction,
            probe_indices=probe_indices,
        )
        ledgers, threads = _ledger_clients(
            server,
            {"mlp": mlp_oracle, LIVE_TENANT: None},
            n_indices=len(test_images),
            concurrency=scenario.concurrency,
            seed=seed,
            stop_event=stop_event,
        )
        start = time.perf_counter()
        for window in range(scenario.windows):
            stream.drift_magnitude = (
                scenario.drift_magnitude
                if window in scenario.drift_windows
                else 0.0
            )
            stream.flip_labels = window in scenario.flip_windows
            learner.update_injector = (
                injector if window in scenario.ber_windows else None
            )
            learner.run_window()
        wall = time.perf_counter() - start
        stop_event.set()
        for thread in threads:
            thread.join(timeout=30.0)
        # Serving-consistency spot check: the live tenant's served
        # answers must match direct predictions of the *snapshot* that
        # is supposed to be serving.
        check_indices = probe_indices[: min(16, len(probe_indices))]
        served = server.predict_many(LIVE_TENANT, indices=check_indices)
        try:
            reference = store.load(learner.serving_epoch)
        except ServingError:
            reference = learner._last_good_network
        expected = direct_predictions(
            reference, test_images, check_indices, seed=seed
        )
        consistent = bool(np.array_equal(served, expected))
        recovered = (
            _await_recovery(pool, recovery_timeout) if pool is not None else True
        )
        state = learner.state()
        totals = {"ok": 0}
        lost = duplicates = 0
        mlp_summary = None
        for name, ledger in ledgers.items():
            summary = ledger.summary()
            totals["ok"] += summary["ok"]
            for key, value in summary["errors"].items():
                totals[key] = totals.get(key, 0) + value
            lost += summary["lost"]
            duplicates += summary["duplicates"]
            if name == "mlp":
                mlp_summary = summary
            payload["models"][name] = {
                "model": name,
                **server.metrics[name].snapshot(),
                "breaker": server.breakers[name].snapshot(),
                "client": summary,
            }
        invariants = {
            "no_lost_requests": lost == 0,
            "no_duplicate_responses": duplicates == 0,
            "untouched_tenant_bit_identical": bool(
                mlp_summary
                and mlp_summary["bit_mismatches"] == 0
                and mlp_summary["ok"] > 0
            ),
            "hot_swaps_completed": state["hot_swaps"] >= scenario.min_hot_swaps,
            "rollback_restored_baseline": bool(
                state["rollbacks_restored"]
                and (state["rollbacks"] >= 1 or not scenario.expect_rollback)
            ),
            "learner_serving_consistent": consistent,
            "supervisor_recovered": recovered,
        }
        if pool is not None:
            payload["pool"] = pool.stats()
        payload["learner"] = {**state, "windows_log": learner.history}
        payload["chaos"] = {
            "scenario": scenario.scenario_id,
            "description": scenario.description,
            "seed": seed,
            "wall_seconds": round(wall, 3),
            "outcomes": totals,
            "lost": lost,
            "duplicates": duplicates,
            "bit_mismatches": (
                mlp_summary["bit_mismatches"] if mlp_summary else 0
            ),
            "recovered": recovered,
            "invariants": invariants,
        }
        payload["health"] = server.health()
        payload["health"]["learner"] = learner.health()
    finally:
        stop_event.set()
        for thread in threads:
            thread.join(timeout=10.0)
        server.close()
    return payload
