"""Shared plan-execution machinery for the two IR executors.

Both executors run a plan through the one opcode switch in
:func:`execute_instructions`.  They differ only in *shape discipline*
— the serial interpreter (the golden model) feeds one ``(1, n)`` row
block at a time, the tiled executor
(:mod:`repro.ir.backends.numpy_tiled`) the whole batch as one block —
and in the few steps the tiled executor hands to a faster kernel with
the same bits (fused QUANT+GEMV, the exact integer GEMV, the LIF scan
readout).  Every other opcode runs the same code in both, which is
what makes the bit-identity contract a property of this module
instead of a per-pair test suite.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import CompileError
from . import kernels, ops
from .ops import CompiledPlan, Instruction


class ExecutionContext:
    """Mutable per-executor state for one plan: shim network, trains, operands.

    Plans are immutable; everything that must persist *across* calls —
    the rebuilt timed-SNN shim, its per-index encoded-spike-train cache
    and the operands derived from the plan's constants — lives here.
    Serving runners hold one context for the life of the runner, so
    served traffic pays the ~0.6 ms/image encoding cost once per index
    and builds each derived operand once.  A context serves the one
    plan it was built for.
    """

    def __init__(self, plan: CompiledPlan):
        self.plan = plan
        self._network = None
        self._trains: Dict[int, Any] = {}
        self._derived: Dict[str, Any] = {}
        # Guards the lazy network build, the train-cache mutation and
        # the derived operands: a served runner's context is shared by
        # its batcher thread(s) and by callers that warm or preload its
        # trains.
        self._lock = threading.Lock()

    def derived(self, key: str, build: Callable[[], Any]) -> Any:
        """``build()``'s value, built once per context under its lock.

        For operands that depend only on the plan: its constants are
        read-only, so what is derived from them can never go stale.
        The tiled executor keeps the LIF scan's operands here.
        """
        with self._lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]

    # -- timed-SNN support ----------------------------------------------

    @property
    def network(self):
        """The LIF grid rebuilt around the plan's read-only consts."""
        with self._lock:
            return self._network_locked()

    def _network_locked(self):
        if self._network is None:
            meta = self.plan.meta
            if "config" not in meta:
                raise CompileError(
                    f"plan {self.plan.kind!r} has LIF_STEP but no config "
                    "metadata"
                )
            from ..snn.network import SpikingNetwork

            network = SpikingNetwork(meta["config"], coder=meta.get("coder"))
            network.weights = self.plan.consts["weights"]
            # Inference never adjusts thresholds; the read-only view
            # turns any stray write into a hard error instead of a
            # silent divergence (same contract as the worker shards).
            network.population.thresholds = self.plan.consts["thresholds"]
            network.neuron_labels = self.plan.consts["neuron_labels"]
            self._network = network
        return self._network

    def preload_trains(self, trains: Dict[int, Any]) -> int:
        """Seed the per-index train cache (shipped/warmed trains)."""
        with self._lock:
            self._trains.update(trains)
            return len(self._trains)

    def cached_train_count(self) -> int:
        with self._lock:
            return len(self._trains)

    def trains_for(
        self, rows: np.ndarray, indices: Sequence[int]
    ) -> List[Any]:
        """Per-index spike trains, encoding (and caching) the missing ones.

        Encoding uses ``child_rng(seed, stream, index)`` — the PR 2
        per-image scheme — so a train depends only on ``(seed, index)``
        and caching is sound.
        """
        from ..snn.batched import encode_indexed

        meta = self.plan.meta
        with self._lock:
            network = self._network_locked()
            missing = [
                (j, int(index))
                for j, index in enumerate(indices)
                if int(index) not in self._trains
            ]
            if missing:
                fresh = encode_indexed(
                    network,
                    np.atleast_2d(rows)[[j for j, _ in missing]],
                    [index for _, index in missing],
                    seed=meta.get("seed"),
                    stream=meta.get("stream"),
                )
                for (_, index), train in zip(missing, fresh):
                    self._trains[index] = train
            return [self._trains[int(index)] for index in indices]


def _act(inst: Instruction, env: Dict[str, np.ndarray]) -> np.ndarray:
    x = env[inst.srcs[0]]
    kernel = inst.param("kernel")
    if kernel == "sigmoid":
        return kernels.sigmoid(x, float(inst.param("slope")))
    if kernel == "step":
        return kernels.step(x)
    if kernel == "lut":
        return kernels.lut_evaluate(
            x,
            env[inst.srcs[1]],
            env[inst.srcs[2]],
            float(inst.param("x_min")),
            float(inst.param("x_max")),
            int(inst.param("segments")),
        )
    raise CompileError(f"unknown ACT kernel {kernel!r}")


def _lif_step(
    inst: Instruction,
    env: Dict[str, np.ndarray],
    indices: Sequence[int],
    ctx: ExecutionContext,
) -> np.ndarray:
    """The golden LIF readout: one image through the grid at a time."""
    from ..snn.batched import batch_winners

    trains = ctx.trains_for(env[inst.srcs[0]], indices)
    winners = [
        int(batch_winners(ctx.network, [train], batch_size=1)[0])
        for train in trains
    ]
    return np.asarray(winners, dtype=np.int64)


#: A step the tiled executor runs in place of one or two instructions:
#: ``kernel(instructions, env, indices, ctx)`` writes their results
#: into ``env``.
Substitution = Tuple[Callable[..., None], Tuple[Instruction, ...]]


def execute_instructions(
    plan: CompiledPlan,
    steps: Sequence[Union[Instruction, Substitution]],
    inputs: np.ndarray,
    indices: Sequence[int],
    ctx: ExecutionContext,
) -> Dict[str, np.ndarray]:
    """Walk ``steps`` over one ``(B, n)`` input block; returns the env.

    A bare :class:`Instruction` runs through the opcode switch below,
    on the serial interpreter's kernels (the serial interpreter passes
    ``plan.instructions`` unchanged).  A ``(kernel, instructions)``
    substitution runs ``kernel`` instead — see
    :func:`repro.ir.backends.numpy_tiled.fusion_steps`.
    """
    env: Dict[str, np.ndarray] = {}
    for step in steps:
        if isinstance(step, tuple):
            kernel, group = step
            kernel(group, env, indices, ctx)
            continue
        inst = step
        if inst.op == ops.LOAD_V:
            block = inputs
            if inst.param("transform") == "norm01":
                block = block.astype(np.float64) / 255.0
            env[inst.dst] = block
        elif inst.op == ops.LOAD_M:
            env[inst.dst] = plan.consts[inst.dst]
        elif inst.op == ops.GEMV:
            env[inst.dst] = kernels.gemv(
                env[inst.srcs[0]], env[inst.srcs[1]],
                cast=inst.param("cast", ""),
            )
        elif inst.op == ops.ADD:
            env[inst.dst] = env[inst.srcs[0]] + env[inst.srcs[1]]
        elif inst.op == ops.SCALE:
            env[inst.dst] = kernels.scale(
                env[inst.srcs[0]], float(inst.param("scale"))
            )
        elif inst.op == ops.RELU:
            env[inst.dst] = kernels.relu(env[inst.srcs[0]])
        elif inst.op == ops.ACT:
            env[inst.dst] = _act(inst, env)
        elif inst.op == ops.QUANT:
            env[inst.dst] = kernels.quantize(
                env[inst.srcs[0]],
                float(inst.param("scale")),
                int(inst.param("min_code")),
                int(inst.param("max_code")),
            )
        elif inst.op == ops.COUNTS:
            env[inst.dst] = kernels.counts(
                env[inst.srcs[0]],
                float(inst.param("duration")),
                float(inst.param("max_rate_interval")),
            )
        elif inst.op == ops.LIF_STEP:
            env[inst.dst] = _lif_step(inst, env, indices, ctx)
        elif inst.op == ops.THRESH:
            env[inst.dst] = kernels.argmax_rows(env[inst.srcs[0]])
        elif inst.op == ops.TAKE:
            env[inst.dst] = np.asarray(env[inst.srcs[1]])[env[inst.srcs[0]]]
        elif inst.op == ops.STORE:
            env[inst.dst] = env[inst.srcs[0]]
        else:  # pragma: no cover - OPCODES is closed
            raise CompileError(f"unhandled opcode {inst.op!r}")
    return env


def input_block(
    plan: CompiledPlan, images: Optional[np.ndarray]
) -> np.ndarray:
    """The ``(B, n)`` input batch; :class:`CompileError` when missing."""
    if images is None:
        raise CompileError(f"plan {plan.kind!r} expects an input batch")
    return np.atleast_2d(np.asarray(images))


def resolve_indices(
    plan: CompiledPlan,
    block: np.ndarray,
    indices: Optional[Sequence[int]],
) -> List[int]:
    """Per-row dataset indices for one input block.

    Defaults to ``range(B)``, like ``predict_batch``.  Raises
    :class:`CompileError` when ``indices`` and the rows differ in
    number (the walk would silently return one label per index, not
    per row), and when a plan keyed by dataset index (LIF_STEP's
    per-image RNG stream) gets a negative one.
    """
    if indices is None:
        return list(range(len(block)))
    row_indices = [int(i) for i in indices]
    if len(row_indices) != len(block):
        raise CompileError(
            f"plan {plan.kind!r} got {len(block)} input row(s) but "
            f"{len(row_indices)} dataset index(es); pass one per row"
        )
    if plan.requires_indices and any(i < 0 for i in row_indices):
        raise CompileError(
            "LIF_STEP needs a dataset index per row; the per-image "
            "RNG stream is keyed by index"
        )
    return row_indices


def gather_outputs(
    plan: CompiledPlan, env: Dict[str, np.ndarray]
):
    results = tuple(env[name] for name in plan.outputs)
    if len(results) == 1:
        return results[0]
    return results
