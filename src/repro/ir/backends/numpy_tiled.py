"""The tiled executor behind :func:`repro.ir.execute.run_plan`.

It runs each batch as one block through the runtime's one opcode
switch (:func:`repro.ir.runtime.execute_instructions`) and hands a
step to a faster kernel only where that kernel is *provably*
bit-identical to the serial interpreter's (never empirically).  The
shipped plans use three such substitutions:

* **Fused QUANT+GEMV.**  Adjacent QUANT+GEMV(int64) pairs collapse
  into one exact dgemm over float64 codes (the quantized MLP's hidden
  and output accumulates).  Fusion only fires when the intermediate
  buffer is consumed exactly once and is not a plan output, so the
  skipped materializations are unobservable.
* **Exact integer GEMV.**  Every other int64 GEMV routes through the
  exact-dgemm trick in :mod:`.tiles` (~3x the int64 matmul) — integer
  sums below ``2**53`` are exact in any order.
* **LIF scan readout.**  The timed SNN readout runs the chunked
  in-place recurrence scan (:mod:`.lif_scan`) when its preconditions
  hold, falling back to the batched grid wholesale otherwise.

The LIF scan's operands depend only on the plan, so they are built
once per :class:`~repro.ir.runtime.ExecutionContext`
(:meth:`~repro.ir.runtime.ExecutionContext.derived`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ...core.errors import CompileError
from .. import kernels, ops
from ..ops import CompiledPlan, Instruction
from ..runtime import (
    ExecutionContext,
    Substitution,
    execute_instructions,
    gather_outputs,
    input_block,
    resolve_indices,
)
from . import lif_scan, tiles

#: Ops that process batch rows independently and bitwise identically
#: regardless of batch composition — the set :func:`rowwise_exact`
#: admits.
_ROWWISE_OPS = frozenset(
    {
        ops.LOAD_V,
        ops.LOAD_M,
        ops.ADD,
        ops.SCALE,
        ops.RELU,
        ops.ACT,
        ops.QUANT,
        ops.COUNTS,
        ops.LIF_STEP,
        ops.THRESH,
        ops.TAKE,
        ops.STORE,
    }
)


def worker_count() -> int:
    """Always 1: every batch runs as one block.

    Kept only because the benchmark trace still imports it, with
    :func:`rowwise_exact`; both go with that import.
    """
    return 1


def rowwise_exact(plan: CompiledPlan) -> bool:
    """True when every instruction is provably row-independent."""
    for inst in plan.instructions:
        if inst.op == ops.GEMV:
            if inst.param("cast", "") != "int64":
                return False
        elif inst.op not in _ROWWISE_OPS:
            return False
    return True


# -- substituted kernels ----------------------------------------------------
#
# Each runs one step of the walk in place of the serial interpreter's
# kernels and writes bitwise the same values into ``env``.


def _quant_gemv(group, env, indices, ctx) -> None:
    quant, gemv = group
    acc = tiles.fused_quant_gemv(
        env[quant.srcs[0]],
        float(quant.param("scale")),
        int(quant.param("min_code")),
        int(quant.param("max_code")),
        env[gemv.srcs[1]],
    )
    if acc is None:  # exactness bound not certifiable: unfuse
        codes = kernels.quantize(
            env[quant.srcs[0]],
            float(quant.param("scale")),
            int(quant.param("min_code")),
            int(quant.param("max_code")),
        )
        env[quant.dst] = codes
        acc = tiles.exact_int_gemm(codes, env[gemv.srcs[1]])
    env[gemv.dst] = acc


def _int_gemv(group, env, indices, ctx) -> None:
    (inst,) = group
    env[inst.dst] = tiles.exact_int_gemm(env[inst.srcs[0]], env[inst.srcs[1]])


def _lif_readout(group, env, indices, ctx) -> None:
    """The first-spike scan when its preconditions hold, else the grid.

    The shim network wraps the plan's read-only consts, so its scan
    operands (transposed weights, train-independent checks) are built
    once per plan.
    """
    (inst,) = group
    trains = ctx.trains_for(env[inst.srcs[0]], indices)
    network = ctx.network
    operands = ctx.derived(
        "lif-scan", lambda: lif_scan.ScanOperands.of(network)
    )
    winners = lif_scan.readout_winners(network, trains, operands)
    env[inst.dst] = np.asarray(winners, dtype=np.int64)


def fusion_steps(
    plan: CompiledPlan,
) -> List[Union[Instruction, Substitution]]:
    """The tiled walk's steps: the plan with its substitutions made.

    A QUANT+GEMV(int64) pair fuses only when the QUANT result is
    consumed exactly once (by the GEMV), neither result is a plan
    output, and every consumer of the accumulate is SCALE, since the
    fused kernel leaves the exact integer values in float64 rather
    than int64.  Unfused int64 GEMVs and LIF_STEP get their faster
    kernels; every other instruction runs on the shared opcode switch.
    """
    reads: Dict[str, int] = {}
    consumers: Dict[str, List[str]] = {}
    for inst in plan.instructions:
        for src in inst.srcs:
            reads[src] = reads.get(src, 0) + 1
            consumers.setdefault(src, []).append(inst.op)
    outputs = set(plan.outputs)

    steps: List[Union[Instruction, Substitution]] = []
    stream = plan.instructions
    i = 0
    while i < len(stream):
        inst = stream[i]
        nxt = stream[i + 1] if i + 1 < len(stream) else None
        if (
            nxt is not None
            and inst.op == ops.QUANT
            and nxt.op == ops.GEMV
            and nxt.param("cast", "") == "int64"
            and nxt.srcs[0] == inst.dst
            and reads.get(inst.dst, 0) == 1
            and inst.dst not in outputs
            and nxt.dst not in outputs
            and all(op == ops.SCALE for op in consumers.get(nxt.dst, []))
        ):
            steps.append((_quant_gemv, (inst, nxt)))
            i += 2
            continue
        if inst.op == ops.GEMV and inst.param("cast", "") == "int64":
            steps.append((_int_gemv, (inst,)))
        elif inst.op == ops.LIF_STEP:
            steps.append((_lif_readout, (inst,)))
        else:
            steps.append(inst)
        i += 1
    return steps


class NumpyTiledBackend:
    """Fused, one-block-per-batch NumPy executor."""

    def run(
        self,
        plan: CompiledPlan,
        images: Optional[np.ndarray] = None,
        indices: Optional[Sequence[int]] = None,
        ctx: Optional[ExecutionContext] = None,
    ) -> Any:
        if ctx is None:
            ctx = ExecutionContext(plan)
        elif ctx.plan is not plan:
            raise CompileError(
                f"execution context was built for another plan than "
                f"{plan.kind!r}"
            )
        block = input_block(plan, images)
        row_indices = resolve_indices(plan, block, indices)
        env = execute_instructions(
            plan, fusion_steps(plan), block, row_indices, ctx
        )
        return gather_outputs(plan, env)
