"""Numeric sentinels: corrupted plans are refused on both execution paths.

Fuzzes random mini-programs, poisons a float constant (or the input
batch) with NaN/Inf, and asserts that execution raises the typed
:class:`NumericSentinelError` instead of returning a prediction — on
``run_plan`` (the tiled executor, id ``numpy-tiled``) and on the
serving audit lane's oracle (a serial-interpreter runner, id
``serial``).  The sentinels live around both walks, so neither path
can opt out of them.
"""

import numpy as np
import pytest

from repro.core.errors import NumericSentinelError
from repro.ir import ops, run_plan
from repro.ir.compile import _Builder
from repro.ir.execute import check_plan_consts
from repro.serve.engine import SerialPlanRunner

from .test_property import _random_program


def _audit_oracle(plan, batch):
    """What the audit lane re-executes a served batch on."""
    return SerialPlanRunner(plan).run(list(range(len(batch))), batch)


#: Both execution paths; applied innermost so ids read ``[path-...]``.
PATHS = pytest.mark.parametrize(
    "execute", [run_plan, _audit_oracle], ids=["numpy-tiled", "serial"]
)

N_FUZZ_SEEDS = 12


def _poison(plan, rng, value):
    """Overwrite one element of one float const with ``value``.

    Returns the poisoned const's name, or None when the plan has no
    float constants (possible for const-free random programs).
    """
    float_consts = [
        name
        for name, array in sorted(plan.consts.items())
        if np.asarray(array).dtype.kind == "f" and np.asarray(array).size
    ]
    if not float_consts:
        return None
    name = float_consts[int(rng.integers(len(float_consts)))]
    poisoned = np.array(plan.consts[name], dtype=np.float64)
    flat = poisoned.reshape(-1)
    flat[int(rng.integers(flat.size))] = value
    plan.consts[name] = poisoned
    return name


def _gemv_plan(weights):
    """Minimal LOAD_V -> GEMV -> STORE(float) pipeline."""
    b = _Builder("mlp")
    b.buffer("x", "input")
    b.emit(ops.LOAD_V, "x", transform="raw")
    w = b.const("w", weights)
    out = b.emit(ops.GEMV, b.buffer("h", "temp"), ("x", w))
    b.store("scores", out, dtype="float64")
    return b.finish(outputs=("scores",))


class TestPoisonedConsts:
    @pytest.mark.parametrize("seed", range(N_FUZZ_SEEDS))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @PATHS
    def test_every_backend_refuses_poisoned_plan(self, execute, seed, value):
        plan, batch = _random_program(seed)
        rng = np.random.default_rng(seed + 1000)
        if _poison(plan, rng, value) is None:
            pytest.skip("random program drew no float consts")
        with pytest.raises(NumericSentinelError):
            execute(plan, batch)

    def test_clean_plan_passes_the_const_check(self):
        plan, _batch = _random_program(0)
        check_plan_consts(plan)  # must not raise


class TestPoisonedInputs:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @PATHS
    def test_non_finite_input_batch_refused(self, execute, value):
        plan = _gemv_plan(np.ones((3, 4)))
        batch = np.ones((2, 4))
        batch[1, 2] = value
        with pytest.raises(NumericSentinelError):
            execute(plan, batch)


class TestPoisonedOutputs:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @PATHS
    def test_overflow_to_inf_is_caught_at_the_output(self, execute):
        """Finite consts, finite inputs — but the GEMV overflows.

        1e200 * 1e200 exceeds float64 range, so the walk computes Inf
        scores; the output sentinel must refuse them even though both
        pre-walk checks passed.
        """
        plan = _gemv_plan(np.full((3, 4), 1e200))
        with pytest.raises(NumericSentinelError, match="output"):
            execute(plan, np.full((2, 4), 1e200))

    @PATHS
    def test_integer_label_outputs_are_exempt(self, execute):
        """The sentinel only inspects float arrays; labels pass."""
        plan, batch = _random_program(3)
        labels = execute(plan, batch)
        assert labels.dtype.kind in "iu"
