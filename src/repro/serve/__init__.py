"""High-throughput inference serving over the reproduced models.

Layers (each importable on its own):

* :mod:`repro.serve.batcher` — dynamic micro-batching scheduler
  (``max_batch`` / ``max_wait_us`` window, bounded queue, deadline
  shedding, graceful drain).
* :mod:`repro.serve.engine` — plan runners + the routing
  :class:`~repro.serve.engine.InferenceServer` (per-model circuit
  breakers, health/readiness probes).  Every served model is a
  compiled IR plan; a model that does not compile (a live spike-fault
  injector, an unlabeled SNN, an object of no known kind) is refused
  with a typed :class:`~repro.core.errors.ServingError` before it
  serves anything.
* :mod:`repro.serve.breaker` — the closed/open/half-open circuit
  breaker state machine.
* :mod:`repro.serve.workers` — sharded worker pool over zero-copy
  shared-memory weights (kill-tolerant, bounded retries, poison
  quarantine).
* :mod:`repro.serve.supervisor` — shard supervision: respawn of dead
  or wedged shards under a crash-loop breaker.
* :mod:`repro.serve.shm` — the shared-memory array bundle (also used
  by ``repro report --jobs``).
* :mod:`repro.serve.metrics` — queue / batch / latency / reliability
  accounting and the ``serve-stats`` / ``serve-health`` renderings.
* :mod:`repro.serve.loadgen` — closed/open-loop load generation, the
  ``repro loadtest`` driver, and SIGTERM/SIGINT graceful drain.
* :mod:`repro.serve.chaos` — the deterministic seeded chaos harness
  (``repro loadtest --chaos <scenario>``).

The load-bearing invariant, asserted across the test suite *and under
chaos*: serving is a *latency* transformation, never a *value* one —
every served label is bit-identical to the corresponding direct
``predict`` call, at any batch size, concurrency, or backend, and
faults may turn answers into typed errors but never into different
answers.  A model that injects spike faults at run time would answer
differently by batch order and shard, so it is refused, not served.
"""

from ..core.errors import (
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    PoisonedRequest,
    ServingError,
    ShardCrashLoop,
)
from .batcher import BatchPolicy, MicroBatcher
from .breaker import BreakerPolicy, CircuitBreaker
from .chaos import (
    SCENARIOS,
    ChaosEvent,
    ChaosInterceptor,
    ChaosScenario,
    chaos_passed,
    get_scenario,
    run_chaos,
)
from .engine import InferenceServer, ModelRunner, build_runners
from .loadgen import GracefulDrain, run_loadtest
from .metrics import (
    ServingMetrics,
    dump_stats,
    load_stats,
    render_health,
    render_stats,
)
from .shm import SharedArrayBundle
from .supervisor import ShardSupervisor, SupervisorPolicy
from .workers import ShardedPool

__all__ = [
    "BatchPolicy",
    "BreakerPolicy",
    "ChaosEvent",
    "ChaosInterceptor",
    "ChaosScenario",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "GracefulDrain",
    "InferenceServer",
    "MicroBatcher",
    "ModelRunner",
    "Overloaded",
    "PoisonedRequest",
    "SCENARIOS",
    "ServingError",
    "ServingMetrics",
    "SharedArrayBundle",
    "ShardCrashLoop",
    "ShardSupervisor",
    "ShardedPool",
    "SupervisorPolicy",
    "build_runners",
    "chaos_passed",
    "dump_stats",
    "get_scenario",
    "load_stats",
    "render_health",
    "render_stats",
    "run_chaos",
    "run_loadtest",
]
