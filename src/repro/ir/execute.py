"""The plan executor entry point and its numeric sentinels.

``run_plan`` is the single execution front door: it hands the batch to
the tiled executor (:class:`~repro.ir.backends.numpy_tiled.NumpyTiledBackend`)
under the ``ir-exec`` timing phase.  There is no engine to choose: the
serial interpreter (:func:`repro.ir.interpret.run_plan_serial`) is the
only other execution path, kept as the oracle the tests and the serving
audit lane compare against, and the IR property tests and per-kind
golden tests assert the two bitwise equal, dtypes included.

**Numeric sentinels.**  Both entry points guard the execution boundary
against silent data corruption (:func:`run_guarded`): float constants
and float inputs are checked for NaN/Inf before the walk, and float
outputs are checked after.  A corrupted weight matrix or a
miscomputing kernel produces non-finite values long before it produces
a plausible wrong label, so the sentinel converts silent garbage into
the typed :class:`~repro.core.errors.NumericSentinelError` — a refusal
the serving layer's audit machinery can count and escalate, instead of
a wrong prediction nobody notices.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.errors import NumericSentinelError
from ..core.timing import phase
from .backends.numpy_tiled import NumpyTiledBackend
from .ops import CompiledPlan
from .runtime import ExecutionContext


def _check_finite(array: np.ndarray, what: str) -> None:
    """Raise the typed sentinel when a float array holds NaN/Inf."""
    array = np.asarray(array)
    if array.dtype.kind != "f" or array.size == 0:
        return
    if not np.isfinite(array).all():
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise NumericSentinelError(
            f"numeric sentinel tripped: {what} contains {bad} non-finite "
            f"value(s) (NaN/Inf) — refusing to produce a prediction"
        )


def check_plan_consts(plan: CompiledPlan) -> None:
    """Verify every float constant of a plan is finite.

    Constants carry the trained weights/thresholds — the payload a
    memory fault corrupts.  Called by :func:`run_guarded` on every
    batch; also usable standalone by callers that want to vet a plan
    once.
    """
    for name, value in plan.consts.items():
        _check_finite(value, f"plan const {name!r}")


def _check_outputs(result, plan: CompiledPlan) -> None:
    if isinstance(result, tuple):
        for name, value in zip(plan.outputs, result):
            _check_finite(value, f"plan output {name!r}")
    else:
        label = plan.outputs[0] if plan.outputs else "result"
        _check_finite(result, f"plan output {label!r}")


def run_guarded(
    walk: Callable,
    plan: CompiledPlan,
    images: Optional[np.ndarray],
    indices: Optional[Sequence[int]],
    ctx: Optional[ExecutionContext],
):
    """Run ``walk(plan, images, indices, ctx)`` between the sentinels.

    Raises :class:`~repro.core.errors.NumericSentinelError` when the
    plan's float constants, the float input batch, or the float outputs
    contain NaN/Inf — the walk's answer is never returned in that case.
    """
    check_plan_consts(plan)
    if images is not None:
        _check_finite(images, "input batch")
    with phase("ir-exec"):
        result = walk(plan, images, indices, ctx)
    _check_outputs(result, plan)
    return result


_EXECUTOR = NumpyTiledBackend()


def run_plan(
    plan: CompiledPlan,
    images: Optional[np.ndarray] = None,
    indices: Optional[Sequence[int]] = None,
    ctx: Optional[ExecutionContext] = None,
):
    """Execute a plan over a batch; returns the output array(s).

    ``indices`` are per-row dataset indices (default ``range(B)``) —
    they key the timed SNN's per-image RNG streams and the executor
    context's train cache; deterministic plans ignore their values,
    but every executor refuses (``CompileError``) a count that differs
    from the number of rows.  Pass a long-lived ``ctx`` to reuse
    encoded spike trains across calls.  Guarded by the numeric
    sentinels (:func:`run_guarded`).
    """
    return run_guarded(_EXECUTOR.run, plan, images, indices, ctx)
