"""Deterministic seeded chaos harness for the serving layer.

A :class:`ChaosScenario` is a declarative schedule of faults over one
load run — shard kills, alive-but-silent wedges, latency spikes and
transient-error bursts — expressed as *fractions of the run duration*
so the same scenario scales from a CI smoke run to a long soak.

Determinism contract:

* the fault **schedule** is fixed by the scenario (event times are
  fractions of the configured duration — no randomness at all);
* the **error burst** draws its per-batch failure lottery from a PR1
  :class:`~repro.faults.injector.FaultInjector` stream keyed by the
  run seed, so which batches fail is reproducible for a given seed;
* the **client request sequence** comes from per-client child RNGs
  (``child_rng(seed, "chaos-client", cid)``), the loadgen scheme.

Invariants the harness *asserts* (and reports):

* **zero lost requests** — every submitted request resolves with a
  result or a typed error; nothing is silently dropped;
* **zero duplicated responses** — each request resolves exactly once
  (duplicate *completions* inside the pool are counted no-ops and
  reported separately);
* **bit-identity** — every *successful* response equals the direct
  oracle prediction for its index, no matter what the chaos schedule
  did to the serving path.  Faults may turn answers into typed
  errors; they may never turn answers into *different answers*.

The chaos seams are intentionally narrow and explicit: the
:class:`ChaosInterceptor` plugs into
:class:`~repro.serve.engine.InferenceServer`'s ``interceptor=`` hook
(latency spikes sleep, error bursts raise, both ahead of the model
call), and shard kills / wedges go through the pool's
``chaos_hooks=True`` surface — no monkeypatching anywhere.

Learning-time chaos lives in :data:`LEARNING_SCENARIOS`: drift storms,
label-flip bursts and SRAM bit errors over the live continual learner
(:mod:`repro.serve.learner`), with the learning-time invariant set —
zero lost / duplicated requests across hot-swaps, rollback restores
the baseline within one window, untouched tenants stay bit-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    PoisonedRequest,
    ServingError,
)
from ..core.hostinfo import host_metadata
from ..core.rng import child_rng
from ..faults.injector import FaultInjector
from ..faults.models import FaultConfig
from .batcher import BatchPolicy
from .engine import InferenceServer
from .supervisor import SupervisorPolicy

#: Event kinds a scenario may schedule.
KILL, WEDGE, LATENCY_SPIKE, ERROR_BURST, CORRUPT_WEIGHTS = (
    "kill_shard",
    "wedge_shard",
    "latency_spike",
    "error_burst",
    "corrupt_weights",
)

#: RNG stream the error burst's failure lottery draws from (via the
#: PR1 fault injector, so bursts compose with its determinism rules).
ERROR_STREAM = "chaos-error-burst"


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        kind: one of ``kill_shard`` / ``wedge_shard`` /
            ``latency_spike`` / ``error_burst``.
        at: event time as a fraction of the run duration in [0, 1).
        target: shard slot for ``kill_shard`` / ``wedge_shard``.
        duration: window length as a duration fraction
            (``latency_spike`` / ``error_burst``), or the wedge sleep
            for ``wedge_shard`` as a duration fraction.
        magnitude: latency-spike sleep in **milliseconds**, the
            error-burst per-batch failure probability in [0, 1], or
            the ``corrupt_weights`` flip count (whole bits, >= 1).
    """

    kind: str
    at: float
    target: int = 0
    duration: float = 0.0
    magnitude: float = 0.0

    def validate(self) -> "ChaosEvent":
        if self.kind not in (
            KILL, WEDGE, LATENCY_SPIKE, ERROR_BURST, CORRUPT_WEIGHTS
        ):
            raise ServingError(f"unknown chaos event kind {self.kind!r}")
        if not 0.0 <= self.at < 1.0:
            raise ServingError(f"event time must be in [0, 1), got {self.at}")
        if self.duration < 0.0:
            raise ServingError(f"duration must be >= 0, got {self.duration}")
        if self.kind == ERROR_BURST and not 0.0 <= self.magnitude <= 1.0:
            raise ServingError(
                f"error-burst magnitude is a probability, got {self.magnitude}"
            )
        if self.kind in (KILL, WEDGE) and self.target < 0:
            raise ServingError(f"target must be >= 0, got {self.target}")
        if self.kind == CORRUPT_WEIGHTS and self.magnitude < 1:
            raise ServingError(
                f"corrupt_weights magnitude is the flip count (>= 1), "
                f"got {self.magnitude}"
            )
        return self


@dataclass(frozen=True)
class ChaosScenario:
    """A named, fully deterministic chaos schedule.

    Attributes:
        scenario_id: the ``--chaos`` identifier.
        description: one-line human summary.
        jobs: shard processes in the pool.
        duration_seconds: load window length.
        concurrency: closed-loop client threads.
        deadline_ms: per-request deadline handed to every submission
            (``None`` disables deadline propagation).
        events: the fault schedule.
        wedge_timeout: supervisor silence threshold, seconds (small so
            wedge scenarios recover inside the run).
        max_task_retries: pool quarantine threshold.
        scrub_period: background integrity-scrub period, seconds
            (``None`` leaves the scrubber off — the default for
            scenarios that never corrupt shared memory).
        audit_rate: audit-lane sampling rate handed to the server.
    """

    scenario_id: str
    description: str
    jobs: int = 2
    duration_seconds: float = 4.0
    concurrency: int = 4
    deadline_ms: Optional[float] = None
    events: Tuple[ChaosEvent, ...] = field(default_factory=tuple)
    wedge_timeout: float = 1.0
    max_task_retries: int = 2
    scrub_period: Optional[float] = None
    audit_rate: float = 0.0

    def validate(self) -> "ChaosScenario":
        if self.jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {self.jobs}")
        if self.scrub_period is not None and self.scrub_period <= 0:
            raise ServingError(
                f"scrub_period must be positive or None, got {self.scrub_period}"
            )
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ServingError(
                f"audit_rate must be in [0, 1], got {self.audit_rate}"
            )
        if self.duration_seconds <= 0:
            raise ServingError(
                f"duration_seconds must be positive, got {self.duration_seconds}"
            )
        if self.concurrency < 1:
            raise ServingError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        for event in self.events:
            event.validate()
            if event.kind in (KILL, WEDGE) and event.target >= self.jobs:
                raise ServingError(
                    f"event targets shard {event.target} but the scenario "
                    f"runs {self.jobs} shard(s)"
                )
        return self


#: The built-in scenario registry (``repro loadtest --chaos <id>``).
SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.scenario_id: scenario.validate()
    for scenario in (
        ChaosScenario(
            scenario_id="smoke",
            description=(
                "CI smoke: kill one of two shards at 25%, 25ms latency "
                "spike over the middle fifth; supervisor must respawn"
            ),
            jobs=2,
            duration_seconds=4.0,
            concurrency=4,
            events=(
                ChaosEvent(kind=KILL, at=0.25, target=0),
                ChaosEvent(
                    kind=LATENCY_SPIKE, at=0.5, duration=0.2, magnitude=25.0
                ),
            ),
        ),
        ChaosScenario(
            scenario_id="kill-spike",
            description=(
                "acceptance: kill one of four shards at 25%, 50ms latency "
                "spike at 50%; every answered request bit-identical"
            ),
            jobs=4,
            duration_seconds=8.0,
            concurrency=8,
            events=(
                ChaosEvent(kind=KILL, at=0.25, target=1),
                ChaosEvent(
                    kind=LATENCY_SPIKE, at=0.5, duration=0.25, magnitude=50.0
                ),
            ),
        ),
        ChaosScenario(
            scenario_id="wedge",
            description=(
                "wedge one shard (alive but silent) at 25%; the "
                "supervisor's wedge detector must kill and respawn it"
            ),
            jobs=2,
            duration_seconds=6.0,
            concurrency=4,
            wedge_timeout=0.8,
            events=(
                ChaosEvent(kind=WEDGE, at=0.25, target=0, duration=0.5),
            ),
        ),
        ChaosScenario(
            scenario_id="error-burst",
            description=(
                "transient-error burst (40% of batches fail) over the "
                "middle third; breakers may trip, answers never change"
            ),
            jobs=2,
            duration_seconds=5.0,
            concurrency=4,
            events=(
                ChaosEvent(
                    kind=ERROR_BURST, at=0.33, duration=0.34, magnitude=0.4
                ),
            ),
        ),
        ChaosScenario(
            scenario_id="weight-corruption",
            description=(
                "flip 8 seeded bits in the live shared weights at 25%; "
                "the scrubber must detect within one period, restore "
                "the segment bit-identically from the verified "
                "snapshot, and serve nothing corrupt after detection"
            ),
            jobs=2,
            duration_seconds=4.0,
            concurrency=4,
            scrub_period=0.4,
            audit_rate=0.05,
            events=(
                ChaosEvent(kind=CORRUPT_WEIGHTS, at=0.25, magnitude=8.0),
            ),
        ),
        ChaosScenario(
            scenario_id="deadline-storm",
            description=(
                "tight 40ms deadlines under a 60ms latency spike: doomed "
                "work must shed with DeadlineExceeded, never hang"
            ),
            jobs=2,
            duration_seconds=5.0,
            concurrency=6,
            deadline_ms=40.0,
            events=(
                ChaosEvent(
                    kind=LATENCY_SPIKE, at=0.4, duration=0.3, magnitude=60.0
                ),
            ),
        ),
    )
}


def get_scenario(scenario_id: str) -> ChaosScenario:
    """Look up a built-in scenario; :class:`ServingError` on unknown."""
    scenario = SCENARIOS.get(scenario_id)
    if scenario is None:
        raise ServingError(
            f"unknown chaos scenario {scenario_id!r}; "
            f"pick one of {sorted(SCENARIOS)}"
        )
    return scenario


def scale_scenario(
    scenario: ChaosScenario,
    duration_seconds: Optional[float] = None,
    concurrency: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_task_retries: Optional[int] = None,
) -> ChaosScenario:
    """Override run-shape knobs without touching the fault schedule."""
    changes: Dict[str, Any] = {}
    if duration_seconds is not None:
        changes["duration_seconds"] = duration_seconds
    if concurrency is not None:
        changes["concurrency"] = concurrency
    if deadline_ms is not None:
        changes["deadline_ms"] = deadline_ms
    if max_task_retries is not None:
        changes["max_task_retries"] = max_task_retries
    return replace(scenario, **changes).validate() if changes else scenario


class ChaosInterceptor:
    """The server-side chaos seam: latency spikes + error bursts.

    Armed with the run's start time, it turns the scenario's
    fractional windows into absolute ``perf_counter`` intervals.  On
    every coalesced batch it (a) sleeps ``magnitude`` ms while inside
    a latency-spike window and (b) raises a transient
    :class:`ServingError` with probability ``magnitude`` while inside
    an error-burst window — the failure lottery drawn from a PR1
    :class:`FaultInjector` stream so a given seed fails the same batch
    sequence every run.
    """

    def __init__(self, scenario: ChaosScenario, seed: int = 0):
        self.scenario = scenario
        self.injector = FaultInjector(FaultConfig(seed=seed))
        self._armed_at: Optional[float] = None
        self._windows: List[Tuple[float, float, ChaosEvent]] = []
        self._lock = threading.Lock()
        self.injected_errors = 0
        self.spiked_batches = 0

    def arm(self, start: float) -> None:
        """Fix the run's absolute timeline (called once at load start)."""
        duration = self.scenario.duration_seconds
        windows = []
        for event in self.scenario.events:
            if event.kind not in (LATENCY_SPIKE, ERROR_BURST):
                continue
            begin = start + event.at * duration
            end = begin + event.duration * duration
            windows.append((begin, end, event))
        with self._lock:
            self._armed_at = start
            self._windows = windows

    def before_batch(self, model: str, payloads: Sequence[Any]) -> None:
        with self._lock:
            if self._armed_at is None:
                return
            windows = list(self._windows)
        now = time.perf_counter()
        for begin, end, event in windows:
            if not begin <= now < end:
                continue
            if event.kind == LATENCY_SPIKE:
                with self._lock:
                    self.spiked_batches += 1
                time.sleep(event.magnitude * 1e-3)
            elif event.kind == ERROR_BURST:
                # Streaming draw: deterministic per-batch lottery.  The
                # lazy stream lookup and the draw share the lock, so
                # concurrent batches cannot build two generators and
                # draw the same value twice.
                with self._lock:
                    draw = float(self.injector.stream(ERROR_STREAM).random())
                    failed = draw < event.magnitude
                    if failed:
                        self.injected_errors += 1
                if failed:
                    raise ServingError(
                        f"chaos: injected transient error for model "
                        f"{model!r} ({len(payloads)} request(s) in batch)"
                    )

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "injected_errors": self.injected_errors,
                "spiked_batches": self.spiked_batches,
            }


class _Ledger:
    """Per-request accounting: every submit must resolve exactly once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.resolutions = 0
        self.double_resolutions = 0
        self.ok = 0
        self.bit_mismatches = 0
        self.mismatch_times: List[float] = []
        self.errors: Dict[str, int] = {}

    def open_request(self) -> None:
        with self._lock:
            self.submitted += 1

    def resolve_ok(self, matched: bool, first: bool) -> None:
        with self._lock:
            self._count_resolution(first)
            self.ok += 1
            if not matched:
                self.bit_mismatches += 1
                # Absolute timestamp: corruption invariants check that
                # no mismatch postdates the scrubber's detection.
                self.mismatch_times.append(time.perf_counter())

    def resolve_error(self, error: BaseException, first: bool) -> None:
        key = type(error).__name__
        with self._lock:
            self._count_resolution(first)
            self.errors[key] = self.errors.get(key, 0) + 1

    def _count_resolution(self, first: bool) -> None:
        if first:
            self.resolutions += 1
        else:
            self.double_resolutions += 1

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            lost = self.submitted - self.resolutions
            return {
                "submitted": self.submitted,
                "ok": self.ok,
                "errors": dict(sorted(self.errors.items())),
                "lost": lost,
                "duplicates": self.double_resolutions,
                "bit_mismatches": self.bit_mismatches,
            }


def _chaos_clients(
    server: InferenceServer,
    model: str,
    oracle: np.ndarray,
    scenario: ChaosScenario,
    seed: int,
    stop_event: threading.Event,
    timeout: float = 60.0,
) -> _Ledger:
    """Closed-loop clients with exhaustive per-request accounting."""
    ledger = _Ledger()
    n_indices = len(oracle)
    deadline_ms = scenario.deadline_ms
    stop_at = time.perf_counter() + scenario.duration_seconds

    def client(client_id: int) -> None:
        rng = child_rng(seed, "chaos-client", client_id)
        while time.perf_counter() < stop_at and not stop_event.is_set():
            index = int(rng.integers(n_indices))
            ledger.open_request()
            resolved = False  # guards against double accounting
            try:
                future = server.submit(
                    model, index=index, deadline_ms=deadline_ms
                )
            except Exception as exc:  # noqa: BLE001 — typed shed at submit
                ledger.resolve_error(exc, first=not resolved)
                continue
            try:
                label = int(future.result(timeout))
            except Exception as exc:  # noqa: BLE001 — typed or injected
                ledger.resolve_error(exc, first=not resolved)
                continue
            ledger.resolve_ok(
                matched=label == int(oracle[index]), first=not resolved
            )

    threads = [
        threading.Thread(
            target=client, args=(cid,), name=f"repro-chaos-client-{cid}"
        )
        for cid in range(scenario.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ledger


def _run_schedule(
    pool,
    scenario: ChaosScenario,
    start: float,
    stop_event: threading.Event,
    log: List[Dict[str, Any]],
    log_lock: threading.Lock,
    seed: int = 0,
) -> None:
    """Fire the scenario's pool-side events at their absolute times."""
    duration = scenario.duration_seconds
    events = sorted(
        (e for e in scenario.events if e.kind in (KILL, WEDGE, CORRUPT_WEIGHTS)),
        key=lambda e: e.at,
    )
    for event in events:
        fire_at = start + event.at * duration
        while True:
            remaining = fire_at - time.perf_counter()
            if remaining <= 0:
                break
            if stop_event.wait(min(remaining, 0.05)):
                return
        entry = {
            "kind": event.kind,
            "target": event.target,
            "at_fraction": event.at,
            "fired_at": round(time.perf_counter() - start, 4),
        }
        try:
            if event.kind == KILL:
                pool.kill_shard(event.target)
            elif event.kind == WEDGE:
                pool.wedge_shard(
                    event.target, event.duration * duration
                )
            else:
                entry.update(
                    pool.chaos_corrupt(
                        seed=seed, n_flips=int(event.magnitude)
                    )
                )
        except ServingError as exc:
            entry["error"] = repr(exc)
        with log_lock:
            log.append(entry)


def _await_recovery(pool, deadline_seconds: float = 15.0) -> bool:
    """Wait for the supervisor to restore full shard capacity."""
    stop_at = time.perf_counter() + deadline_seconds
    while time.perf_counter() < stop_at:
        if len(pool.alive_shards()) == pool.jobs:
            return True
        time.sleep(0.05)
    return len(pool.alive_shards()) == pool.jobs


def run_chaos(
    scenario: str | ChaosScenario = "smoke",
    models: Sequence[str] = ("mlp",),
    dataset: str = "digits",
    seed: int = 0,
    max_batch: int = 8,
    max_wait_us: float = 1000.0,
    max_queue: int = 1024,
    duration_seconds: Optional[float] = None,
    concurrency: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_task_retries: Optional[int] = None,
    recovery_timeout: float = 15.0,
) -> Dict[str, Any]:
    """Run one chaos scenario end to end; returns the stats payload.

    Trains (cache-warm) the requested models, serves them through a
    supervised, chaos-hooked :class:`~repro.serve.workers.ShardedPool`,
    fires the scenario's schedule while closed-loop clients drive load,
    then checks the three invariants (zero lost, zero duplicated,
    zero bit mismatches among successes) and supervisor recovery.
    """
    from .loadgen import build_models, direct_predictions

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario = scale_scenario(
        scenario.validate(),
        duration_seconds=duration_seconds,
        concurrency=concurrency,
        deadline_ms=deadline_ms,
        max_task_retries=max_task_retries,
    )
    names = list(dict.fromkeys(models))
    built = build_models(names, dataset=dataset)
    test_images = np.asarray(built["test"].images)
    oracles = {
        name: np.asarray(
            direct_predictions(
                built["models"][name],
                test_images,
                list(range(len(test_images))),
                seed=seed,
            )
        )
        for name in names
    }
    policy = BatchPolicy(
        max_batch=max_batch, max_wait_us=max_wait_us, max_queue=max_queue
    )
    supervisor = SupervisorPolicy(
        poll_interval=0.05,
        wedge_timeout=scenario.wedge_timeout,
        backoff_base=0.05,
        backoff_max=0.5,
        cooldown=1.0,
        ready_timeout=60.0,
        seed=seed,
    )
    from .workers import ShardedPool

    interceptor = ChaosInterceptor(scenario, seed=seed)
    pool = ShardedPool(
        built["models"],
        jobs=scenario.jobs,
        images=test_images,
        seed=seed,
        max_task_retries=scenario.max_task_retries,
        supervisor=supervisor,
        chaos_hooks=True,
        scrub_period=scenario.scrub_period,
    )
    server = InferenceServer(
        pool=pool,
        policy=policy,
        images=test_images,
        interceptor=interceptor,
        audit_rate=scenario.audit_rate,
        audit_seed=seed,
    )
    schedule_log: List[Dict[str, Any]] = []
    log_lock = threading.Lock()
    stop_event = threading.Event()
    payload: Dict[str, Any] = {
        "loadtest": {
            "mode": "chaos",
            "dataset": dataset,
            "models": names,
            "jobs": scenario.jobs,
            "duration_seconds": scenario.duration_seconds,
            "concurrency": scenario.concurrency,
            "seed": seed,
            "n_test_images": int(len(test_images)),
        },
        "host": host_metadata(),
        "models": {},
    }
    try:
        ledgers: Dict[str, _Ledger] = {}
        for name in names:
            for metrics in server.metrics.values():
                metrics.reset()
            start = time.perf_counter()
            interceptor.arm(start)
            stop_event.clear()
            schedule = threading.Thread(
                target=_run_schedule,
                args=(
                    pool, scenario, start, stop_event, schedule_log,
                    log_lock, seed,
                ),
                name="repro-chaos-schedule",
                daemon=True,
            )
            schedule.start()
            ledgers[name] = _chaos_clients(
                server, name, oracles[name], scenario, seed, stop_event
            )
            stop_event.set()
            schedule.join(timeout=5.0)
            payload["models"][name] = {
                "model": name,
                **server.metrics[name].snapshot(),
                "breaker": server.breakers[name].snapshot(),
                "client": ledgers[name].summary(),
            }
        recovered = _await_recovery(pool, recovery_timeout)
        outcomes: Dict[str, int] = {"ok": 0}
        lost = duplicates = mismatches = 0
        for ledger in ledgers.values():
            summary = ledger.summary()
            outcomes["ok"] += summary["ok"]
            for key, value in summary["errors"].items():
                outcomes[key] = outcomes.get(key, 0) + value
            lost += summary["lost"]
            duplicates += summary["duplicates"]
            mismatches += summary["bit_mismatches"]
        payload["pool"] = pool.stats()
        invariants: Dict[str, Any] = {
            "no_lost_requests": lost == 0,
            "no_duplicate_responses": duplicates == 0,
            "bit_identical_successes": mismatches == 0,
            "supervisor_recovered": recovered,
        }
        has_corruption = any(
            e.kind == CORRUPT_WEIGHTS for e in scenario.events
        )
        if has_corruption:
            # Final sweep: anything still corrupt is restored (and
            # counted) before the bit-identity check below.
            leftovers = pool.scrub_now()
            integrity = pool.integrity_stats()
            last = integrity.get("last_corruption") or {}
            detected_at = last.get("detected_at")
            fired = [
                e for e in schedule_log
                if e.get("kind") == CORRUPT_WEIGHTS and "injected_at" in e
            ]
            injected_at = fired[0]["injected_at"] if fired else None
            period = scenario.scrub_period or 0.0
            # A mismatch served *before* the scrubber could notice is
            # the attack window; one served after detection is a
            # defense failure — the epoch gate must have discarded it.
            late_mismatches = [
                t
                for ledger in ledgers.values()
                for t in ledger.mismatch_times
                if detected_at is None or t > detected_at
            ]
            invariants.update(
                {
                    "corruption_detected": integrity["scrub_failures"] >= 1
                    and detected_at is not None,
                    "detected_within_scrub_period": (
                        detected_at is not None
                        and injected_at is not None
                        # 1s of slack for a loaded CI scheduler.
                        and detected_at - injected_at <= period + 1.0
                    ),
                    "no_corrupt_responses_after_detection": not late_mismatches,
                    "restored_bit_identical": (
                        not leftovers
                        and integrity["restores"] >= 1
                        and not integrity["unrecoverable"]
                    ),
                    # Mismatches inside the pre-detection window are the
                    # injected fault doing its job, not a serving bug.
                    "bit_identical_successes": not late_mismatches,
                }
            )
        payload["chaos"] = {
            "scenario": scenario.scenario_id,
            "description": scenario.description,
            "seed": seed,
            "deadline_ms": scenario.deadline_ms,
            "events": sorted(
                schedule_log, key=lambda e: e.get("fired_at", 0.0)
            ),
            "interceptor": interceptor.counters(),
            "outcomes": outcomes,
            "lost": lost,
            "duplicates": duplicates,
            "bit_mismatches": mismatches,
            "recovered": recovered,
            "invariants": invariants,
        }
        payload["integrity"] = server.integrity()
        payload["health"] = server.health()
    finally:
        stop_event.set()
        server.close()
    return payload


def chaos_passed(payload: Dict[str, Any]) -> bool:
    """True when every invariant of a chaos payload holds."""
    invariants = payload.get("chaos", {}).get("invariants", {})
    return bool(invariants) and all(invariants.values())


# ---------------------------------------------------------------------------
# Learning-time chaos: scenarios over the live continual learner
# ---------------------------------------------------------------------------

from .learner import LearnerSLO, LearningScenario  # noqa: E402

#: Learning-time scenario registry (``repro learn-serve --chaos <id>``).
#: Kept separate from :data:`SCENARIOS` — these drive
#: :func:`repro.serve.learner.run_learn_serve`, not :func:`run_chaos`,
#: and their invariants are the learning-time set (zero lost/duplicate
#: requests across hot-swaps, rollback restores the baseline,
#: untouched tenants stay bit-identical).
LEARNING_SCENARIOS: Dict[str, LearningScenario] = {
    scenario.scenario_id: scenario.validate()
    for scenario in (
        LearningScenario(
            scenario_id="steady",
            description=(
                "clean stream: windows learn, gate, promote; at least "
                "one guarded hot-swap with zero dropped requests"
            ),
            windows=4,
            window_size=32,
            slo=LearnerSLO(
                gate_retention=0.6, gate_tolerance=0.05, rollback_retention=0.6
            ),
            min_hot_swaps=1,
        ),
        LearningScenario(
            scenario_id="drift-storm",
            description=(
                "covariate shift on the middle windows: lenient SLOs "
                "keep promotions flowing — >= 3 hot-swaps, zero lost "
                "or duplicated requests across every swap"
            ),
            windows=6,
            window_size=32,
            drift_windows=(2, 3, 4),
            drift_magnitude=0.3,
            slo=LearnerSLO(
                gate_retention=0.4, gate_tolerance=0.1, rollback_retention=0.4
            ),
            min_hot_swaps=3,
        ),
        LearningScenario(
            scenario_id="label-flip-burst",
            description=(
                "label poisoning on window 1: the shadow gate (flipped "
                "labels on both sides) waves the bad candidate through, "
                "the fixed-probe guard catches it — automatic rollback "
                "restores the baseline within the same window"
            ),
            windows=4,
            window_size=32,
            flip_windows=(1,),
            slo=LearnerSLO(
                gate_retention=0.6, gate_tolerance=0.05, rollback_retention=0.8
            ),
            min_hot_swaps=2,
            expect_rollback=True,
        ),
        LearningScenario(
            scenario_id="sram-ber-learning",
            description=(
                "SRAM bit errors hit candidate weights between STDP "
                "windows: gate and guard contain the damage; requests "
                "are never lost and untouched tenants never change"
            ),
            windows=4,
            window_size=32,
            ber_windows=(1, 2),
            weight_ber=0.02,
            slo=LearnerSLO(
                gate_retention=0.6, gate_tolerance=0.05, rollback_retention=0.6
            ),
        ),
    )
}


def get_learning_scenario(scenario_id: str) -> LearningScenario:
    """Look up a learning scenario; :class:`ServingError` on unknown."""
    scenario = LEARNING_SCENARIOS.get(scenario_id)
    if scenario is None:
        raise ServingError(
            f"unknown learning scenario {scenario_id!r}; "
            f"pick one of {sorted(LEARNING_SCENARIOS)}"
        )
    return scenario


def run_learning_chaos(
    scenario: "str | LearningScenario" = "steady", **kwargs: Any
) -> Dict[str, Any]:
    """Run one learning-time scenario (see :func:`run_learn_serve`)."""
    from .learner import run_learn_serve

    if isinstance(scenario, str):
        scenario = get_learning_scenario(scenario)
    return run_learn_serve(scenario, **kwargs)
