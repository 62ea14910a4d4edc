"""Experiment runner infrastructure.

An *experiment* regenerates one of the paper's tables or figures.  It
is a named callable returning an :class:`ExperimentResult`: a list of
records (dict rows, e.g. one per table row or per plotted point) plus
the paper's reference values, so reports can print paper-vs-measured
side by side.

Experiments register themselves in :mod:`repro.core.registry`; the
benchmark harness and ``repro.analysis.report`` both run them through
this interface.

For long sweeps, :class:`ResilientRunner` hardens any experiment
function with per-attempt wall-clock timeouts, bounded retries (with
reseeding and exponential backoff) and graceful degradation — an
automatic ``scale`` fallback when every retry at the requested
fidelity fails.  Retries and re-runs resume trained models through
the content-addressed model cache (:mod:`repro.core.artifacts`): a
model whose key an earlier attempt stored is loaded, not retrained.
The structured failure record
of a resilient run (``attempts``, ``failures``, ``degraded``) is
surfaced on the returned :class:`ExperimentResult` and rendered by
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import ExperimentError, ExperimentTimeoutError
from .rng import DEFAULT_SEED


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes:
        experiment_id: e.g. "table3", "fig8", "sec45-mpeg7".
        title: human-readable description.
        rows: measured records; each a flat dict of column -> value.
        paper_rows: the paper's reference records, aligned with rows
            where possible (same keys), for side-by-side reporting.
        notes: free-text caveats (substitutions, scale-downs).
        elapsed_seconds: wall-clock time of the run.
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    elapsed_seconds: float = 0.0
    #: Resilient-run bookkeeping (filled by :class:`ResilientRunner`;
    #: a plain run leaves the defaults: one attempt, no failures).
    attempts: int = 1
    degraded: bool = False
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def column_names(self) -> List[str]:
        """Union of keys across measured rows, in first-seen order."""
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def find_row(self, **criteria: Any) -> Dict[str, Any]:
        """First measured row matching all key=value criteria."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                return row
        raise ExperimentError(
            f"{self.experiment_id}: no row matching {criteria!r}"
        )


#: An experiment entry point.  ``scale`` in (0, 1] lets callers trade
#: fidelity for speed (smaller datasets / fewer epochs); 1.0 is the
#: full reproduction configuration.
ExperimentFn = Callable[..., ExperimentResult]


def run_timed(
    fn: ExperimentFn, *args: Any, **kwargs: Any
) -> ExperimentResult:
    """Run an experiment function and stamp its elapsed time."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    result.elapsed_seconds = time.perf_counter() - start
    return result


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry describing one reproducible table/figure."""

    experiment_id: str
    title: str
    fn: ExperimentFn
    #: Where in the paper this appears (for the report header).
    paper_location: str = ""

    def run(self, **kwargs: Any) -> ExperimentResult:
        return run_timed(self.fn, **kwargs)


# ----------------------------------------------------------------------
# Resilient execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunPolicy:
    """Knobs of a resilient experiment run.

    Attributes:
        retries: extra attempts after the first, *per scale level*.
        timeout_seconds: wall-clock budget of one attempt (``None``
            disables the timeout).
        backoff_seconds: sleep before the first retry; each further
            retry multiplies it by ``backoff_factor`` (0 disables).
        backoff_factor: exponential backoff multiplier.
        degrade_scales: successive fallback ``scale`` values tried
            (in order) once every retry at the requested fidelity has
            failed; only used when the experiment function accepts a
            ``scale`` keyword.  Each fallback level gets the same
            retry budget.
        reseed: derive a fresh ``seed`` for every retry (only when the
            function accepts a ``seed`` keyword) so a failure caused
            by an unlucky stochastic draw is not replayed verbatim.
    """

    retries: int = 0
    timeout_seconds: Optional[float] = None
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    degrade_scales: Tuple[float, ...] = ()
    reseed: bool = True

    def validate(self) -> "RunPolicy":
        if self.retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ExperimentError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.backoff_seconds < 0 or self.backoff_factor < 1.0:
            raise ExperimentError(
                "backoff_seconds must be >= 0 and backoff_factor >= 1"
            )
        for scale in self.degrade_scales:
            if not 0.0 < scale <= 1.0:
                raise ExperimentError(
                    f"degrade scales must be in (0, 1], got {scale}"
                )
        return self


@dataclass
class FailureRecord:
    """One failed attempt of a resilient run."""

    attempt: int              # 1-based global attempt number
    scale: Optional[float]    # fidelity the attempt ran at (None: n/a)
    seed: Optional[int]       # seed the attempt ran with (None: n/a)
    kind: str                 # "timeout" | "error"
    error: str                # exception type name
    message: str
    elapsed_seconds: float

    def as_row(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "scale": self.scale,
            "seed": self.seed,
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _accepted_keywords(fn: Callable) -> Optional[set]:
    """Keyword names ``fn`` accepts, or ``None`` if it takes **kwargs."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins, odd callables
        return None
    names = set()
    for parameter in signature.parameters.values():
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return names


def _call_with_timeout(
    fn: Callable[..., Any], kwargs: Dict[str, Any], timeout: Optional[float]
) -> Any:
    """Run ``fn(**kwargs)``, raising on a blown wall-clock budget.

    The attempt runs on a daemon thread joined with ``timeout``; a
    still-running attempt is *abandoned* (Python offers no safe way to
    kill a thread) and :class:`ExperimentTimeoutError` is raised so
    the caller can retry.  Abandoned attempts never block interpreter
    exit (daemon threads).
    """
    if timeout is None:
        return fn(**kwargs)
    box: Dict[str, Any] = {}

    def _target() -> None:
        try:
            box["result"] = fn(**kwargs)
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    worker = threading.Thread(target=_target, daemon=True, name="repro-attempt")
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise ExperimentTimeoutError(
            f"attempt exceeded the {timeout:g}s wall-clock budget"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


class ResilientRunner:
    """Wraps experiment functions with retry / timeout / degrade logic.

    The run plan is a sequence of *scale levels*: the requested
    fidelity first, then each of ``policy.degrade_scales``.  Every
    level gets ``1 + policy.retries`` attempts; each attempt is bounded
    by ``policy.timeout_seconds`` and separated from the previous one
    by the exponential backoff.  Retries reseed (when supported), so a
    pathological stochastic draw is not replayed.  The first success
    wins; its :class:`ExperimentResult` carries the full failure
    history.  If every attempt at every level fails, the last
    exception propagates (with the history attached as
    ``failure_records``).

    ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        policy: RunPolicy,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.policy = policy.validate()
        self._sleep = sleep

    def run(
        self,
        fn: ExperimentFn,
        experiment_id: str = "",
        **kwargs: Any,
    ) -> ExperimentResult:
        """Run ``fn(**kwargs)`` under the policy; returns its result."""
        policy = self.policy
        accepted = _accepted_keywords(fn)

        def supports(name: str) -> bool:
            return accepted is None or name in accepted

        call_kwargs = dict(kwargs)
        base_seed = call_kwargs.get("seed")
        scales: List[Optional[float]] = [call_kwargs.get("scale")]
        if supports("scale"):
            scales += [s for s in policy.degrade_scales]

        failures: List[FailureRecord] = []
        attempt_number = 0
        last_error: Optional[BaseException] = None
        for level, scale in enumerate(scales):
            for retry in range(policy.retries + 1):
                attempt_number += 1
                attempt_kwargs = dict(call_kwargs)
                if scale is not None and supports("scale"):
                    attempt_kwargs["scale"] = scale
                seed_used = base_seed if base_seed is None else int(base_seed)
                if policy.reseed and attempt_number > 1 and supports("seed"):
                    seed_used = (
                        int(base_seed) if base_seed is not None else DEFAULT_SEED
                    ) + 1009 * (attempt_number - 1)
                    attempt_kwargs["seed"] = seed_used
                if attempt_number > 1 and policy.backoff_seconds > 0:
                    self._sleep(
                        policy.backoff_seconds
                        * policy.backoff_factor ** (attempt_number - 2)
                    )
                start = time.perf_counter()
                try:
                    result = _call_with_timeout(
                        fn, attempt_kwargs, policy.timeout_seconds
                    )
                except Exception as exc:  # noqa: BLE001 — any failure retries
                    last_error = exc
                    failures.append(
                        FailureRecord(
                            attempt=attempt_number,
                            scale=scale,
                            seed=seed_used,
                            kind=(
                                "timeout"
                                if isinstance(exc, ExperimentTimeoutError)
                                else "error"
                            ),
                            error=type(exc).__name__,
                            message=str(exc),
                            elapsed_seconds=time.perf_counter() - start,
                        )
                    )
                    continue
                result.elapsed_seconds = time.perf_counter() - start
                result.attempts = attempt_number
                result.degraded = level > 0
                result.failures = [record.as_row() for record in failures]
                if result.degraded:
                    note = (
                        f"degraded to scale={scale:g} after "
                        f"{len(failures)} failed attempt(s)"
                    )
                    result.notes = (
                        f"{result.notes} [{note}]" if result.notes else note
                    )
                return result
        message = (
            f"{experiment_id or getattr(fn, '__name__', 'experiment')}: all "
            f"{attempt_number} attempt(s) failed; last error: {last_error}"
        )
        error = ExperimentError(message)
        error.failure_records = [record.as_row() for record in failures]
        raise error from last_error

    def run_spec(self, spec: ExperimentSpec, **kwargs: Any) -> ExperimentResult:
        """Run a registry entry under the policy."""
        return self.run(spec.fn, experiment_id=spec.experiment_id, **kwargs)


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------


def run_experiment_by_id(
    experiment_id: str,
    policy: Optional[RunPolicy] = None,
    kwargs: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one registered experiment (module-level, so it pickles).

    This is the unit of work of :func:`run_experiments` — executed
    either inline (serial) or inside a worker process.  The worker
    re-imports the analysis package so the registry is populated
    regardless of the multiprocessing start method, then applies the
    :class:`RunPolicy` semantics (timeout / retries / degradation)
    exactly as a serial run would: resilience is
    *per experiment*, unchanged by where the experiment executes.
    """
    from . import registry  # local import: registry imports this module

    registry.ensure_default_registrations()
    spec = registry.get(experiment_id)
    call_kwargs = dict(kwargs or {})
    if policy is None:
        return spec.run(**call_kwargs)
    return ResilientRunner(policy).run_spec(spec, **call_kwargs)


def run_experiments(
    experiment_ids: List[str],
    policy: Optional[RunPolicy] = None,
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    **kwargs: Any,
) -> List[ExperimentResult]:
    """Run registered experiments, optionally across worker processes.

    Results come back **in the order of ``experiment_ids``** no matter
    which worker finishes first, so parallel reports are deterministic.
    ``jobs <= 1`` (or a single experiment) runs serially in-process.
    ``initializer(*initargs)`` runs once in every worker at startup
    (e.g. :func:`repro.analysis.common._attach_shared_datasets`, which
    points the dataset caches at the parent's shared-memory segment).
    If the process pool cannot be created or breaks (sandboxed
    environments, missing semaphores, unpicklable payloads), the run
    falls back to the serial path instead of failing — parallelism is
    an optimization, never a requirement.  Experiment errors are *not*
    swallowed by the fallback: they propagate just as a serial run's
    would.
    """
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    ids = list(experiment_ids)
    if jobs in (0, 1) or len(ids) <= 1:
        return [run_experiment_by_id(i, policy, kwargs) for i in ids]
    try:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(ids)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = {
                experiment_id: pool.submit(
                    run_experiment_by_id, experiment_id, policy, kwargs
                )
                for experiment_id in ids
            }
            return [futures[experiment_id].result() for experiment_id in ids]
    except (OSError, ImportError, BrokenExecutor, RuntimeError) as pool_error:
        # Pool infrastructure failure (not an experiment failure):
        # degrade gracefully to the serial path.
        if isinstance(pool_error, ExperimentError):
            raise
        return [run_experiment_by_id(i, policy, kwargs) for i in ids]
