"""The execution IR: a small typed instruction set over named buffers.

All five model kinds (mlp, mlp-q, snnwt, snnwot, snnbp) lower onto the
same ~10 ops, in the spirit of the paper's observation that one small
set of hardware primitives — synaptic accumulate, threshold/activation
— serves both the neuroscience and the machine-learning families:

========== =================================================================
op         semantics (all arrays NumPy; batch axis first where present)
========== =================================================================
LOAD_V     bind the external input batch to ``dst`` (``transform`` param:
           ``raw`` keeps luminance rows as-is, ``norm01`` casts to float64
           and divides by 255 — the MLP ``predict_images`` entry)
LOAD_M     bind the constant array named ``dst`` (weights, biases, LUT
           tables, label maps) from the plan's const pool into the env
GEMV       ``dst = x @ w.T`` — the synaptic accumulate.  ``cast="int64"``
           runs the quantized datapath's exact integer accumulate
           (``x @ w.T.astype(int64)``)
ADD        ``dst = x + b`` (bias row broadcast against the batch)
SCALE      ``dst = float64(x) * scale`` — one fixed-point rescale step;
           the quantized MLP emits *two* sequential SCALEs to reproduce
           its left-to-right ``accum * act_scale * w_scale`` float order
RELU       ``dst = maximum(x, 0)`` (property tests; the paper's
           models use sigmoid/step/LUT activations via ACT)
ACT        activation: ``kernel`` param selects ``sigmoid`` (stable
           two-branch, ``slope`` param), ``step`` (``x > 0``), or ``lut``
           (the 16-segment piecewise-linear sigmoid; slopes/intercepts
           arrive as const srcs, breakpoints as params)
QUANT      ``dst = clip(round(x / scale), min_code, max_code)`` as int64 —
           exactly ``QFormat.quantize_code``
COUNTS     deterministic luminance->spike-count front end
           (``deterministic_counts_batch``), cast to float64
LIF_STEP   the timed winner-take-all macro-op: encode per-index spike
           trains and run the leaky integrate-and-fire grid to first
           spike; ``dst`` holds winner neuron indices ``(B,)``
THRESH     ``dst = argmax(x, axis=-1)`` — the readout comparator
TAKE       ``dst = table[idx]`` — map winner indices through a label table
STORE      mark ``src`` as the plan output named ``dst``
========== =================================================================

Plans are immutable: instructions are frozen dataclasses, const arrays
are copied and marked read-only at construction, and
:meth:`CompiledPlan.signature` content-addresses the whole plan (ops,
buffers, const bytes, metadata, code-version salt) so caches and
shipped shards can key on plan identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import CompileError

#: Salt folded into every plan signature; bump on any semantic change
#: to op behaviour or lowering so stale cached plans can never collide.
PLAN_CODE_VERSION = "ir-pr8-1"

# -- opcode constants -------------------------------------------------------

LOAD_V = "LOAD_V"
LOAD_M = "LOAD_M"
GEMV = "GEMV"
ADD = "ADD"
SCALE = "SCALE"
RELU = "RELU"
ACT = "ACT"
QUANT = "QUANT"
COUNTS = "COUNTS"
LIF_STEP = "LIF_STEP"
THRESH = "THRESH"
TAKE = "TAKE"
STORE = "STORE"

#: Every opcode the executors implement, in listing order.
OPCODES = (
    LOAD_V,
    LOAD_M,
    GEMV,
    ADD,
    SCALE,
    RELU,
    ACT,
    QUANT,
    COUNTS,
    LIF_STEP,
    THRESH,
    TAKE,
    STORE,
)

#: Buffer roles (the buffer table's second column).
ROLES = ("input", "const", "temp", "output")


def _param_doc(value: Any) -> Any:
    """JSON-stable form of one instruction parameter."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, tuple):
        return [_param_doc(v) for v in value]
    return value


@dataclass(frozen=True)
class Instruction:
    """One IR instruction: ``dst = op(*srcs, **params)``.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    instructions are hashable, order-independent in their construction,
    and safely picklable to worker shards.
    """

    op: str
    dst: str
    srcs: Tuple[str, ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise CompileError(f"unknown opcode {self.op!r}")
        object.__setattr__(self, "srcs", tuple(self.srcs))
        if isinstance(self.params, dict):
            params = self.params
        else:
            params = dict(self.params)
        object.__setattr__(
            self, "params", tuple(sorted(params.items()))
        )

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def to_doc(self) -> Dict[str, Any]:
        """Stable-key JSON form (the ``ir-dump --json`` row)."""
        return {
            "op": self.op,
            "dst": self.dst,
            "srcs": list(self.srcs),
            "params": {k: _param_doc(v) for k, v in self.params},
        }

    def render(self) -> str:
        """One human-readable listing line."""
        args = ", ".join(self.srcs)
        params = " ".join(
            f"{k}={_param_doc(v)!r}" for k, v in self.params
        )
        text = f"{self.op:<9} {self.dst}"
        if args:
            text += f" <- {args}"
        if params:
            text += f"  [{params}]"
        return text


@dataclass(frozen=True)
class BufferSpec:
    """One named buffer: its role in the dataflow and element dtype."""

    name: str
    role: str
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise CompileError(
                f"unknown buffer role {self.role!r} for {self.name!r}"
            )

    def to_doc(self) -> Dict[str, Any]:
        return {"name": self.name, "role": self.role, "dtype": self.dtype}


def _freeze_const(value: np.ndarray) -> np.ndarray:
    """Copy + write-protect a const so plans can never alias model state."""
    array = np.array(value)  # always a fresh copy, never a view
    array.setflags(write=False)
    return array


class CompiledPlan:
    """An immutable compiled inference program for one model kind.

    Attributes:
        kind: the model kind the plan lowers (``mlp``/``mlp-q``/
            ``snnwt``/``snnwot``/``snnbp``) — or ``program`` for
            hand-built property-test programs.
        instructions: the instruction sequence (a tuple).
        buffers: :class:`BufferSpec` table covering every named buffer.
        consts: ``name -> read-only ndarray`` const pool (copied at
            construction; executors bind these via LOAD_M).
        meta: small picklable metadata executors need beyond arrays
            (model config, spike coder, RNG seed/stream for LIF_STEP).
        outputs: names STOREd as plan results, in order.
    """

    def __init__(
        self,
        kind: str,
        instructions: Sequence[Instruction],
        buffers: Sequence[BufferSpec],
        consts: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
        outputs: Sequence[str] = ("labels",),
    ):
        self.kind = str(kind)
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        self.buffers: Tuple[BufferSpec, ...] = tuple(buffers)
        self.consts: Dict[str, np.ndarray] = {
            name: _freeze_const(value) for name, value in consts.items()
        }
        self.meta: Dict[str, Any] = dict(meta or {})
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self._validate()
        self._signature: Optional[str] = None

    # -- construction-time checks ---------------------------------------

    def _validate(self) -> None:
        known = {spec.name for spec in self.buffers}
        if len(known) != len(self.buffers):
            raise CompileError("duplicate buffer names in plan")
        bound = set(self.consts)
        for inst in self.instructions:
            for src in inst.srcs:
                if src not in known:
                    raise CompileError(
                        f"{inst.op} reads undeclared buffer {src!r}"
                    )
            if inst.dst not in known:
                raise CompileError(
                    f"{inst.op} writes undeclared buffer {inst.dst!r}"
                )
            if inst.op == LOAD_M and inst.dst not in bound:
                raise CompileError(
                    f"LOAD_M of {inst.dst!r} has no const in the pool"
                )
        roles = {spec.name: spec.role for spec in self.buffers}
        for name in self.outputs:
            if roles.get(name) != "output":
                raise CompileError(
                    f"plan output {name!r} is not declared role=output"
                )

    @property
    def requires_indices(self) -> bool:
        """True when execution is keyed by dataset index (LIF_STEP RNG)."""
        return any(inst.op == LIF_STEP for inst in self.instructions)

    # -- introspection ---------------------------------------------------

    def listing(self) -> str:
        """Human-readable instruction listing + buffer table."""
        lines = [f"plan {self.kind} ({len(self.instructions)} instructions)"]
        for i, inst in enumerate(self.instructions):
            lines.append(f"  {i:>3}: {inst.render()}")
        lines.append("buffers:")
        for spec in self.buffers:
            extra = ""
            if spec.name in self.consts:
                extra = f" shape={self.consts[spec.name].shape}"
            lines.append(
                f"  {spec.name:<16} {spec.role:<7} {spec.dtype}{extra}"
            )
        lines.append(f"outputs: {', '.join(self.outputs)}")
        return "\n".join(lines)

    def to_doc(self) -> Dict[str, Any]:
        """Stable-key JSON document (``ir-dump --json``)."""
        return {
            "kind": self.kind,
            "instructions": [inst.to_doc() for inst in self.instructions],
            "buffers": [spec.to_doc() for spec in self.buffers],
            "outputs": list(self.outputs),
            "signature": self.signature(),
        }

    def signature(self) -> str:
        """Content address of the whole plan (hex SHA-256 prefix).

        Covers the instruction stream, buffer table, const *bytes*
        (dtype + shape + data), canonicalized metadata, and the IR
        code-version salt — any semantic difference yields a new
        signature, so plan caches and shipped shards can never serve a
        stale program.
        """
        if self._signature is not None:
            return self._signature
        from ..core.artifacts import _jsonable, coder_signature

        meta_doc: Dict[str, Any] = {}
        for key, value in sorted(self.meta.items()):
            if key == "coder":
                meta_doc[key] = coder_signature(value)
            else:
                meta_doc[key] = _jsonable(value)
        payload = {
            "code_version": PLAN_CODE_VERSION,
            "kind": self.kind,
            "instructions": [inst.to_doc() for inst in self.instructions],
            "buffers": [spec.to_doc() for spec in self.buffers],
            "outputs": list(self.outputs),
            "meta": meta_doc,
            "consts": {
                name: {
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "sha256": hashlib.sha256(
                        np.ascontiguousarray(array).tobytes()
                    ).hexdigest(),
                }
                for name, array in sorted(self.consts.items())
            },
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        self._signature = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
        return self._signature

    # -- shard shipping ---------------------------------------------------

    def skeleton(self) -> Dict[str, Any]:
        """Picklable plan-minus-consts for shipping to worker shards.

        The big const arrays travel through the shared-memory bundle;
        this small spec carries everything else.  Rebuild with
        :meth:`from_skeleton`.
        """
        return {
            "kind": self.kind,
            "instructions": self.instructions,
            "buffers": self.buffers,
            "meta": dict(self.meta),
            "outputs": self.outputs,
            "const_names": sorted(self.consts),
            "signature": self.signature(),
        }

    @classmethod
    def from_skeleton(
        cls, skeleton: Mapping[str, Any], consts: Mapping[str, np.ndarray]
    ) -> "CompiledPlan":
        """Rebind a shipped skeleton around (read-only) const views."""
        missing = sorted(set(skeleton["const_names"]) - set(consts))
        if missing:
            raise CompileError(
                f"plan skeleton is missing const arrays {missing}"
            )
        plan = cls.__new__(cls)
        plan.kind = skeleton["kind"]
        plan.instructions = tuple(skeleton["instructions"])
        plan.buffers = tuple(skeleton["buffers"])
        # Shared-memory views are already read-only; bind without the
        # defensive copy so N shards keep sharing one set of pages.
        plan.consts = {
            name: consts[name] for name in skeleton["const_names"]
        }
        plan.meta = dict(skeleton["meta"])
        plan.outputs = tuple(skeleton["outputs"])
        plan._validate()
        plan._signature = skeleton.get("signature")
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPlan(kind={self.kind!r}, "
            f"instructions={len(self.instructions)}, "
            f"consts={sorted(self.consts)})"
        )
