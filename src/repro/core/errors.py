"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`
so callers can catch library failures without catching unrelated
built-in exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A model or hardware configuration is invalid or inconsistent."""


class DatasetError(ReproError):
    """A dataset request cannot be satisfied (bad shape, class count, split)."""


class TrainingError(ReproError):
    """Training diverged or was invoked with inconsistent data."""


class HardwareModelError(ReproError):
    """A hardware design cannot be composed or costed as requested."""


class SimulationError(ReproError):
    """The cycle-accurate simulator detected an inconsistent datapath state."""


class ExperimentError(ReproError):
    """An experiment id is unknown or its prerequisites are missing."""


class SerializationError(ReproError):
    """A model checkpoint is corrupt, incomplete, or of an unknown layout."""


class ExperimentTimeoutError(ExperimentError):
    """An experiment attempt exceeded its wall-clock budget."""


class CompileError(ReproError):
    """A model cannot be lowered onto the execution IR.

    Raised by :mod:`repro.ir.compile` for unknown model kinds,
    unlabeled SNNs and models whose forward pass cannot be expressed as
    a pure plan (e.g. an attached fault injector that corrupts spikes
    at run time).  Serving re-raises it as a :class:`ServingError`
    naming the model; ``SNNTrainer.predict`` simulates a refused timed
    SNN on the batched grid.  The model itself is never left in a
    modified state.
    """


class ServingError(ReproError):
    """The inference serving layer could not accept or complete a request."""


class Overloaded(ServingError):
    """Admission control shed the request (bounded queue at capacity).

    Raised *instead of* blocking: under overload the serving layer
    fails fast so callers can back off, rather than letting latency
    grow without bound.  Carries no partial result — the request was
    never enqueued.
    """


class DeadlineExceeded(ServingError):
    """A request's deadline expired before it could be served.

    Raised (or set on the request's future) whenever expired work is
    *shed* instead of executed: at submission when the deadline has
    already passed, at batch formation when the request cannot make
    its deadline, and at requeue after a shard death.  Expired work is
    never silently dropped — the caller always observes this typed
    error — and never admitted into a batch it can't make.
    """


class CircuitOpen(ServingError):
    """A per-model circuit breaker is open; the request was rejected.

    The serving layer observed a high error rate (or pathological
    latency) for this model and is failing fast instead of queueing
    more work onto a broken path.  After a cooldown the breaker
    half-opens and lets probe requests through; callers should back
    off and retry later.
    """


class PoisonedRequest(ServingError):
    """A request was quarantined after repeatedly killing worker shards.

    When the same task is in flight across ``K`` shard deaths it is
    presumed to be the *cause* (a poison request) and is quarantined:
    its future fails with this error, its signature is remembered, and
    resubmissions are rejected immediately instead of being requeued
    forever and taking the whole pool down.
    """


class IntegrityError(ServingError):
    """Stored or shared bytes failed a checksum verification.

    Raised when a :class:`~repro.serve.shm.SharedArrayBundle` segment's
    contents no longer match the per-array SHA-256 digests computed at
    publish time — at shard attach, by the pool's background scrubber,
    or by an explicit ``verify()`` — and when a corrupted segment
    cannot be restored from its verified cache snapshot.  Silent data
    corruption becomes a typed refusal instead of a wrong answer.
    """


class NumericSentinelError(ReproError):
    """A numeric sentinel tripped at a plan-execution boundary.

    Raised by :func:`repro.ir.execute.run_plan` when a plan's constant
    arrays, float inputs, or float outputs contain NaN/Inf — the
    signature of corrupted weights or a miscomputing kernel.  The
    request is refused with this typed error; garbage is never returned
    as a prediction.  Deliberately *not* a :class:`ServingError`: the
    sentinel also guards direct (non-serving) plan execution.
    """


class ShardCrashLoop(ServingError):
    """A shard slot is crash-looping; the supervisor stopped respawning.

    Raised/reported when a shard dies more than ``max_respawns`` times
    within ``respawn_window`` seconds: the crash-loop breaker for that
    slot opens and respawn attempts pause until the cooldown elapses
    (half-open: one probe respawn is allowed)."""
