"""The tiled executor behind :func:`repro.ir.execute.run_plan`.

It runs a plan through the runtime's one opcode switch
(:func:`repro.ir.runtime.execute_instructions`) and hands a step to a
faster kernel only where that kernel is *provably* bit-identical to
the serial interpreter's (never empirically):

* **Peephole fusion.**  Adjacent QUANT+GEMV(int64) pairs collapse into
  one exact dgemm over float64 codes (the quantized MLP's two hidden /
  output accumulates), and the count-coded readout's GEMV+THRESH pair
  collapses into a score-tile argmax that never materializes the wide
  score matrix.  Fusion only fires when the intermediate buffer is
  consumed exactly once and is not a plan output, so the skipped
  materializations are unobservable.
* **Tiled integer accumulates.**  Every other int64 GEMV routes
  through the exact-dgemm trick in :mod:`.tiles` (~3x the int64
  matmul) with L2-sized row tiles — integer sums are order-exact, so
  tiling cannot change a bit.
* **LIF scan + threaded row blocks.**  The timed SNN readout runs the
  chunked linear-recurrence scan (:mod:`.lif_scan`) when its
  preconditions hold, falling back to the batched grid wholesale
  otherwise.  Plans whose every instruction is *rowwise-exact* — all
  elementwise ops, integer GEMVs, and the LIF readout, but **not**
  float GEMVs (BLAS float64 results depend on operand row count) nor
  LFSR_FILL (no batch axis) — may additionally be split into
  contiguous row blocks across a ``ThreadPoolExecutor``.  Blocks are
  scheduled and concatenated in deterministic index order, and each
  op's row independence makes the merged result bitwise the
  single-block walk regardless of thread timing.
* **Bulk LFSR.**  LFSR_FILL runs the GF(2)-dilation bulk generator
  instead of the scalar bit-walk.

``REPRO_IR_THREADS`` caps the worker count (default: the CPUs the
process may run on).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
#: regardless of batch composition (see module docstring) — the
#: admission set for the threaded row-block scheduler.
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

#: Don't bother spinning threads below this many rows per worker.
_MIN_ROWS_PER_WORKER = 32


def worker_count() -> int:
    """Thread budget (``REPRO_IR_THREADS`` overrides; >=1).

    Defaults to the CPUs this process may run on (its affinity mask),
    not the host's: a process pinned to one CPU gets one block.
    """
    raw = os.environ.get("REPRO_IR_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value >= 1:
        return value
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


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
        acc = tiles.tiled_gemv(codes, env[gemv.srcs[1]], cast="int64")
    env[gemv.dst] = acc


def _gemv_thresh(group, env, indices, ctx) -> None:
    gemv, thresh = group
    env[thresh.dst] = tiles.fused_gemv_thresh(
        env[gemv.srcs[0]], env[gemv.srcs[1]]
    )


def _int_gemv(group, env, indices, ctx) -> None:
    (inst,) = group
    env[inst.dst] = tiles.tiled_gemv(
        env[inst.srcs[0]], env[inst.srcs[1]], cast="int64"
    )


def _lif_readout(group, env, indices, ctx) -> None:
    """The first-spike scan when its preconditions hold, else the grid."""
    (inst,) = group
    trains = ctx.trains_for(env[inst.srcs[0]], indices)
    winners = lif_scan.readout_winners(ctx.network, trains)
    env[inst.dst] = np.asarray(winners, dtype=np.int64)


def _lfsr_fill(group, env, indices, ctx) -> None:
    (inst,) = group
    env[inst.dst] = kernels.lfsr_gaussian(
        tuple(inst.param("seeds")),
        int(inst.param("resolution")),
        int(inst.param("count")),
        vectorized=True,
    )


def fusion_steps(
    plan: CompiledPlan,
) -> List[Union[Instruction, Substitution]]:
    """The tiled walk's steps: the plan with its substitutions made.

    A pair fuses only when the intermediate is consumed exactly once
    (by the pair's second op) and is not a plan output; the fused
    QUANT+GEMV additionally requires every consumer of the accumulate
    to be SCALE, since the fused kernel leaves the exact integer
    values in float64 rather than int64.  Unfused int64 GEMVs,
    LIF_STEP and LFSR_FILL get their tiled kernels; every other
    instruction runs on the shared opcode switch.
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
        if (
            nxt is not None
            and inst.op == ops.GEMV
            and inst.param("cast", "") == ""
            and nxt.op == ops.THRESH
            and nxt.srcs[0] == inst.dst
            and reads.get(inst.dst, 0) == 1
            and inst.dst not in outputs
        ):
            steps.append((_gemv_thresh, (inst, nxt)))
            i += 2
            continue
        if inst.op == ops.GEMV and inst.param("cast", "") == "int64":
            steps.append((_int_gemv, (inst,)))
        elif inst.op == ops.LIF_STEP:
            steps.append((_lif_readout, (inst,)))
        elif inst.op == ops.LFSR_FILL:
            steps.append((_lfsr_fill, (inst,)))
        else:
            steps.append(inst)
        i += 1
    return steps


class NumpyTiledBackend:
    """Cache-blocked, fused, optionally threaded NumPy executor."""

    def run(
        self,
        plan: CompiledPlan,
        images: Optional[np.ndarray] = None,
        indices: Optional[Sequence[int]] = None,
        ctx: Optional[ExecutionContext] = None,
    ) -> Any:
        if ctx is None:
            ctx = ExecutionContext(plan)
        steps = fusion_steps(plan)
        block = input_block(plan, images)
        if block is None:
            env = execute_instructions(plan, steps, None, [], ctx)
            return gather_outputs(plan, env)
        row_indices = resolve_indices(plan, block, indices)
        blocks = self._schedule(plan, block, row_indices, ctx)
        if len(blocks) == 1:
            env = execute_instructions(plan, steps, block, row_indices, ctx)
            return gather_outputs(plan, env)
        workers = min(worker_count(), len(blocks))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    execute_instructions,
                    plan,
                    steps,
                    block[start:stop],
                    row_indices[start:stop],
                    ctx,
                )
                for start, stop in blocks
            ]
            envs = [future.result() for future in futures]
        outputs = tuple(
            np.concatenate([env[name] for env in envs], axis=0)
            for name in plan.outputs
        )
        return outputs[0] if len(outputs) == 1 else outputs

    def _schedule(
        self,
        plan: CompiledPlan,
        block: np.ndarray,
        row_indices: Sequence[int],
        ctx: ExecutionContext,
    ) -> List[Tuple[int, int]]:
        """Contiguous row blocks, in deterministic index order."""
        n_rows = len(block)
        workers = worker_count()
        if (
            workers <= 1
            or n_rows < 2 * _MIN_ROWS_PER_WORKER
            or not rowwise_exact(plan)
        ):
            return [(0, n_rows)]
        if plan.requires_indices:
            # Encode every missing train (and build the shim network)
            # on the calling thread: worker blocks then only read the
            # context's caches.
            ctx.network
            ctx.trains_for(block, row_indices)
        rows = max(
            _MIN_ROWS_PER_WORKER, -(-n_rows // workers)
        )
        return [
            (start, min(start + rows, n_rows))
            for start in range(0, n_rows, rows)
        ]
