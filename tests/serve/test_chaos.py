"""Chaos harness: scenario registry, interceptor determinism, invariants.

Cheap unit tests drive the scenario/event validation and the
interceptor's fault lottery directly; one small seeded end-to-end run
exercises ``run_chaos`` and asserts the full invariant set (zero lost,
zero duplicated, bit-identical successes, supervisor recovery).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.errors import ServingError
from repro.serve.chaos import (
    CORRUPT_WEIGHTS,
    ERROR_BURST,
    KILL,
    LATENCY_SPIKE,
    SCENARIOS,
    WEDGE,
    ChaosEvent,
    ChaosInterceptor,
    ChaosScenario,
    chaos_passed,
    get_scenario,
    run_chaos,
    scale_scenario,
)


class TestEventValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "meteor_strike", "at": 0.5},
            {"kind": KILL, "at": 1.0},
            {"kind": KILL, "at": -0.1},
            {"kind": LATENCY_SPIKE, "at": 0.5, "duration": -0.1},
            {"kind": ERROR_BURST, "at": 0.5, "magnitude": 1.5},
            {"kind": WEDGE, "at": 0.5, "target": -1},
            {"kind": CORRUPT_WEIGHTS, "at": 0.5, "magnitude": 0.0},
        ],
    )
    def test_bad_events_raise(self, kwargs):
        with pytest.raises(ServingError):
            ChaosEvent(**kwargs).validate()

    def test_good_event_round_trips(self):
        event = ChaosEvent(kind=KILL, at=0.25, target=1).validate()
        assert event.kind == KILL and event.target == 1


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"duration_seconds": 0.0},
            {"concurrency": 0},
            {"scrub_period": 0.0},
            {"audit_rate": 1.5},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ServingError):
            ChaosScenario(
                scenario_id="x", description="bad", **kwargs
            ).validate()

    def test_event_target_must_fit_the_pool(self):
        scenario = ChaosScenario(
            scenario_id="x",
            description="kill a shard the pool does not have",
            jobs=2,
            events=(ChaosEvent(kind=KILL, at=0.5, target=2),),
        )
        with pytest.raises(ServingError, match="targets shard 2"):
            scenario.validate()


class TestRegistry:
    def test_builtin_scenarios_all_validate(self):
        assert set(SCENARIOS) == {
            "smoke",
            "kill-spike",
            "wedge",
            "error-burst",
            "deadline-storm",
            "weight-corruption",
        }
        for scenario_id, scenario in SCENARIOS.items():
            assert scenario.validate().scenario_id == scenario_id

    def test_unknown_scenario_raises_typed(self):
        with pytest.raises(ServingError, match="unknown chaos scenario"):
            get_scenario("apocalypse")

    def test_scale_overrides_shape_but_not_schedule(self):
        base = get_scenario("smoke")
        scaled = scale_scenario(
            base, duration_seconds=1.0, concurrency=2, deadline_ms=50.0
        )
        assert scaled.duration_seconds == 1.0
        assert scaled.concurrency == 2
        assert scaled.deadline_ms == 50.0
        assert scaled.events == base.events  # fault schedule untouched

    def test_scale_without_changes_is_identity(self):
        base = get_scenario("smoke")
        assert scale_scenario(base) is base


def _burst_scenario(magnitude: float = 0.5) -> ChaosScenario:
    return ChaosScenario(
        scenario_id="unit-burst",
        description="full-run error burst for lottery tests",
        jobs=1,
        duration_seconds=100.0,  # window comfortably covers the calls
        events=(
            ChaosEvent(
                kind=ERROR_BURST, at=0.0, duration=0.99, magnitude=magnitude
            ),
        ),
    ).validate()


class TestInterceptor:
    def _lottery(self, seed: int, draws: int = 40) -> list:
        interceptor = ChaosInterceptor(_burst_scenario(), seed=seed)
        interceptor.arm(time.perf_counter())
        pattern = []
        for _ in range(draws):
            try:
                interceptor.before_batch("m", [(0, None, None)])
            except ServingError:
                pattern.append(True)
            else:
                pattern.append(False)
        return pattern

    def test_error_lottery_is_seed_deterministic(self):
        assert self._lottery(seed=7) == self._lottery(seed=7)

    def test_error_lottery_is_seed_deterministic_across_two_threads(self):
        """Batches drawn from two scheduler threads at once take the
        same draws as serial batches: same multiset of outcomes, no
        value drawn twice from two lazily built generators.  A tiny
        GIL switch interval makes the threads interleave inside
        ``before_batch``."""
        draws = 40
        serial = sorted(self._lottery(seed=7, draws=draws))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(20):
                self._two_thread_lottery(serial, draws)
        finally:
            sys.setswitchinterval(interval)

    def _two_thread_lottery(self, serial: list, draws: int) -> None:
        interceptor = ChaosInterceptor(_burst_scenario(), seed=7)
        interceptor.arm(time.perf_counter())
        start = threading.Barrier(2)
        outcomes = [[], []]

        def draw(side):
            start.wait()
            for _ in range(draws // 2):
                try:
                    interceptor.before_batch("m", [(0, None, None)])
                except ServingError:
                    outcomes[side].append(True)
                else:
                    outcomes[side].append(False)

        threads = [
            threading.Thread(target=draw, args=(side,)) for side in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert sorted(outcomes[0] + outcomes[1]) == serial
        assert interceptor.counters()["injected_errors"] == sum(serial)

    def test_error_lottery_varies_with_seed(self):
        assert self._lottery(seed=7) != self._lottery(seed=8)

    def test_unarmed_interceptor_is_a_no_op(self):
        interceptor = ChaosInterceptor(_burst_scenario(magnitude=1.0))
        interceptor.before_batch("m", [(0, None, None)])  # no raise
        assert interceptor.counters() == {
            "injected_errors": 0,
            "spiked_batches": 0,
        }

    def test_latency_spike_sleeps_inside_its_window(self):
        scenario = ChaosScenario(
            scenario_id="unit-spike",
            description="full-run latency spike",
            jobs=1,
            duration_seconds=100.0,
            events=(
                ChaosEvent(
                    kind=LATENCY_SPIKE, at=0.0, duration=0.99, magnitude=5.0
                ),
            ),
        ).validate()
        interceptor = ChaosInterceptor(scenario)
        interceptor.arm(time.perf_counter())
        begin = time.perf_counter()
        interceptor.before_batch("m", [(0, None, None)])
        assert time.perf_counter() - begin >= 0.004  # slept ~5ms
        assert interceptor.counters()["spiked_batches"] == 1

    def test_events_outside_their_window_do_nothing(self):
        interceptor = ChaosInterceptor(_burst_scenario(magnitude=1.0))
        interceptor.arm(time.perf_counter() - 1000.0)  # windows long past
        interceptor.before_batch("m", [(0, None, None)])  # no raise
        assert interceptor.counters()["injected_errors"] == 0

    def test_counters_are_thread_safe_snapshots(self):
        interceptor = ChaosInterceptor(_burst_scenario(magnitude=0.0))
        interceptor.arm(time.perf_counter())
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    interceptor.before_batch("m", [(0, None, None)])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert interceptor.counters()["injected_errors"] == 0


class TestChaosPassed:
    def test_requires_every_invariant(self):
        good = {
            "chaos": {
                "invariants": {
                    "no_lost_requests": True,
                    "no_duplicate_responses": True,
                    "bit_identical_successes": True,
                    "supervisor_recovered": True,
                }
            }
        }
        assert chaos_passed(good)
        bad = {
            "chaos": {
                "invariants": {**good["chaos"]["invariants"], "lost": False}
            }
        }
        assert not chaos_passed(bad)

    def test_empty_payload_fails(self):
        assert not chaos_passed({})
        assert not chaos_passed({"chaos": {}})


class TestEndToEnd:
    def test_smoke_scenario_holds_every_invariant(self):
        """A short seeded smoke run: the shard kill fires, the
        supervisor respawns, and not one request is lost, duplicated,
        or answered differently from the direct oracle."""
        payload = run_chaos(
            "smoke",
            models=("mlp",),
            seed=0,
            duration_seconds=2.0,
            concurrency=2,
        )
        chaos = payload["chaos"]
        assert chaos["scenario"] == "smoke"
        assert chaos["invariants"] == {
            "no_lost_requests": True,
            "no_duplicate_responses": True,
            "bit_identical_successes": True,
            "supervisor_recovered": True,
        }
        assert chaos_passed(payload)
        assert chaos["outcomes"]["ok"] > 0
        # The scheduled kill actually fired and was healed.
        kinds = [event["kind"] for event in chaos["events"]]
        assert "kill_shard" in kinds
        assert payload["pool"]["respawns"] >= 1
        assert payload["health"]["ready"] is True
