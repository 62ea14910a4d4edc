"""Property tests: random mini-programs, serial vs vectorized bitwise.

The bit-identity contract is a property of the shared instruction walk,
not of any particular lowering — so these tests build *random* plans
from the deterministic op subset and assert the serial interpreter and
the plan executor agree bitwise, dtypes included, on every one.
"""

import numpy as np
import pytest

from repro.ir import run_plan, run_plan_serial
from repro.ir import ops
from repro.ir.compile import _Builder

N_RANDOM_PROGRAMS = 20


def _random_program(seed):
    """One random deterministic pipeline ending in THRESH/STORE."""
    rng = np.random.default_rng(seed)
    n_inputs = int(rng.integers(4, 12))
    b = _Builder("mlp")
    b.buffer("x", "input")
    b.emit(
        ops.LOAD_V, "x",
        transform=str(rng.choice(["raw", "norm01"])),
    )
    cur, width = "x", n_inputs
    for k in range(int(rng.integers(2, 6))):
        op = str(
            rng.choice(["gemv", "add", "scale", "relu", "act", "quant"])
        )
        if op == "gemv":
            out_width = int(rng.integers(3, 10))
            w = b.const(f"w{k}", rng.standard_normal((out_width, width)))
            cur = b.emit(ops.GEMV, b.buffer(f"t{k}", "temp"), (cur, w))
            width = out_width
        elif op == "add":
            c = b.const(f"c{k}", rng.standard_normal(width))
            cur = b.emit(ops.ADD, b.buffer(f"t{k}", "temp"), (cur, c))
        elif op == "scale":
            cur = b.emit(
                ops.SCALE, b.buffer(f"t{k}", "temp"), (cur,),
                scale=float(rng.uniform(0.1, 2.0)),
            )
        elif op == "relu":
            cur = b.emit(ops.RELU, b.buffer(f"t{k}", "temp"), (cur,))
        elif op == "act":
            if rng.random() < 0.5:
                cur = b.emit(
                    ops.ACT, b.buffer(f"t{k}", "temp"), (cur,),
                    kernel="sigmoid", slope=float(rng.uniform(0.5, 3.0)),
                )
            else:
                cur = b.emit(
                    ops.ACT, b.buffer(f"t{k}", "temp"), (cur,),
                    kernel="step",
                )
        else:  # quant
            cur = b.emit(
                ops.QUANT, b.buffer(f"t{k}", "temp", "int64"), (cur,),
                scale=float(rng.uniform(0.01, 0.2)),
                min_code=-128, max_code=127,
            )
    winner = b.buffer("winner", "temp", "int64")
    b.emit(ops.THRESH, winner, (cur,))
    b.store("labels", winner)
    batch = rng.integers(0, 256, size=(int(rng.integers(1, 33)), n_inputs))
    return b.finish(), batch.astype(np.float64)


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(N_RANDOM_PROGRAMS))
    def test_serial_equals_vectorized(self, seed):
        plan, batch = _random_program(seed)
        serial = run_plan_serial(plan, batch)
        vectorized = run_plan(plan, batch)
        assert serial.dtype == vectorized.dtype
        np.testing.assert_array_equal(serial, vectorized)

    def test_block_size_invariance(self):
        plan, batch = _random_program(777)
        full = run_plan(plan, batch)
        for block in (1, 3, 7):
            chunked = np.concatenate(
                [
                    run_plan(plan, batch[i : i + block])
                    for i in range(0, len(batch), block)
                ]
            )
            np.testing.assert_array_equal(chunked, full)
