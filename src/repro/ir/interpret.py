"""The NumPy-serial plan interpreter — the single golden model.

Feeds one ``(1, n)`` row block at a time through the shared instruction
walk, so every matrix product is a one-row GEMM and the timed SNN runs
one image through the grid per step.  This is the reference the
per-model-kind golden tests pin to the retained legacy oracles, the
reference the tiled executor is asserted bitwise-equal to, and the
oracle the serving audit lane re-executes sampled batches on.

Row blocks stay 2-D, so per-row results concatenate into the batch
result.  The contract is on plan outputs.  It holds by construction
only where every step is row-independent: the integer GEMVs of mlp-q
and the per-row LIF readout of snnwt.  Float64 ``X @ W.T`` rows are
*not* bitwise independent of the batch they ride in — BLAS picks its
kernel by operand shape, so a row of a 1-row product can differ in the
last bits from the same row of a larger product.  The float-GEMV
plans (mlp, snnwot, snnbp) therefore hold different float buffers
(the MLP's hidden and output layers, the SNN readouts' scores) in the
whole-batch and the row-at-a-time walks; their labels, an argmax over
those buffers, are observed equal across batch sizes, not equal by
construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .execute import run_guarded
from .ops import CompiledPlan
from .runtime import (
    ExecutionContext,
    execute_instructions,
    input_block,
    resolve_indices,
)


def run_plan_serial(
    plan: CompiledPlan,
    images: Optional[np.ndarray] = None,
    indices: Optional[Sequence[int]] = None,
    ctx: Optional[ExecutionContext] = None,
):
    """Execute a plan one input row at a time (the golden model).

    Returns the plan's output array (or a tuple for multi-output
    programs), identical in shape to :func:`repro.ir.execute.run_plan`'s
    result, behind the same numeric sentinels.
    """
    return run_guarded(_run_serial, plan, images, indices, ctx)


def _run_serial(plan, images, indices, ctx):
    if ctx is None:
        ctx = ExecutionContext(plan)
    block = input_block(plan, images)
    row_indices = resolve_indices(plan, block, indices)
    per_row = [
        execute_instructions(
            plan,
            plan.instructions,
            block[i : i + 1],
            row_indices[i : i + 1],
            ctx,
        )
        for i in range(len(block))
    ]
    outputs = []
    for name in plan.outputs:
        outputs.append(
            np.concatenate([env[name] for env in per_row], axis=0)
            if per_row
            else np.empty((0,), dtype=np.int64)
        )
    if len(outputs) == 1:
        return outputs[0]
    return tuple(outputs)
