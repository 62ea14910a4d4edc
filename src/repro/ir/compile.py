"""Lowering: trained model objects -> immutable :class:`CompiledPlan`.

One ``compile_model`` entry point dispatches on the five model kinds
and emits the exact legacy forward pass as an instruction sequence:

* ``mlp`` — normalize, GEMV/ADD/ACT hidden (step or slope-sigmoid),
  GEMV/ADD/ACT output (unit sigmoid — its saturation ties matter for
  the argmax), THRESH.
* ``mlp-q`` — normalize, QUANT to activation codes, integer GEMV,
  **two sequential SCALEs** (``accum * act_scale * w_scale`` is
  evaluated left-to-right in the legacy pipeline and float multiply is
  not associative), ADD of the precomputed float bias
  (``bias_codes * w_scale``), LUT ACT, re-QUANT; the output layer stops
  at the pre-activation (the legacy ``predict`` argmaxes there).
* ``snnwot`` — deterministic COUNTS front end, float GEMV over the
  trained weights, THRESH, label TAKE.
* ``snnbp`` — COUNTS, SCALE by ``1/max_spikes_per_pixel``, GEMV,
  THRESH, TAKE.
* ``snnwt`` — the timed family keeps its per-index RNG contract:
  LIF_STEP carries weights/thresholds as consts and config/coder/seed/
  stream as metadata; executors encode ``child_rng(seed, stream, i)``
  spike trains and run the WTA grid (serial: one image at a time;
  tiled: the first-spike scan, or the batched grid).

Models with a live spike-affecting fault injector refuse to compile
(:class:`~repro.core.errors.CompileError`) — run-time corruption is not
a pure dataflow.  Serving turns the refusal into a
:class:`~repro.core.errors.ServingError` (such models are not served);
:meth:`~repro.snn.network.SNNTrainer.predict` simulates a refused timed
SNN with :func:`~repro.snn.batched.predict_batch`, the oracle.  The
quantized MLP is the exception by design: its injector corrupts the
stored code arrays *at construction*, so the plan's consts already are
the faulted SRAM contents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..core.errors import CompileError
from ..core.timing import phase
from . import ops
from .ops import BufferSpec, CompiledPlan, Instruction

#: Model kinds the compiler lowers (the serving registry's names).
PLAN_KINDS = ("mlp", "mlp-q", "snnwt", "snnwot", "snnbp")


def kind_of(model) -> str:
    """The serving-registry kind string for a trained model object."""
    from ..mlp.network import MLP
    from ..mlp.quantized import QuantizedMLP
    from ..snn.network import SpikingNetwork
    from ..snn.snn_bp import BackPropSNN
    from ..snn.snn_wot import SNNWithoutTime

    if isinstance(model, SpikingNetwork):
        return "snnwt"
    if isinstance(model, SNNWithoutTime):
        return "snnwot"
    if isinstance(model, BackPropSNN):
        return "snnbp"
    if isinstance(model, QuantizedMLP):
        return "mlp-q"
    if isinstance(model, MLP):
        return "mlp"
    raise CompileError(
        f"cannot lower a {type(model).__name__}; known kinds: "
        f"{', '.join(PLAN_KINDS)}"
    )


class _Builder:
    """Accumulates instructions/buffers/consts during one lowering."""

    def __init__(self, kind: str):
        self.kind = kind
        self.instructions: List[Instruction] = []
        self.buffers: List[BufferSpec] = []
        self.consts: Dict[str, np.ndarray] = {}
        self.meta: Dict[str, Any] = {}

    def buffer(self, name: str, role: str, dtype: str = "float64") -> str:
        self.buffers.append(BufferSpec(name, role, dtype))
        return name

    def const(self, name: str, value: np.ndarray) -> str:
        value = np.asarray(value)
        self.buffer(name, "const", str(value.dtype))
        self.consts[name] = value
        self.instructions.append(Instruction(ops.LOAD_M, name))
        return name

    def emit(self, op: str, dst: str, srcs=(), **params) -> str:
        self.instructions.append(
            Instruction(op, dst, tuple(srcs), tuple(params.items()))
        )
        return dst

    def store(self, name: str, src: str, dtype: str = "int64") -> str:
        self.buffer(name, "output", dtype)
        self.emit(ops.STORE, name, (src,))
        return name

    def finish(self, outputs=("labels",)) -> CompiledPlan:
        return CompiledPlan(
            self.kind,
            self.instructions,
            self.buffers,
            self.consts,
            meta=self.meta,
            outputs=outputs,
        )


def _lower_mlp(model) -> CompiledPlan:
    b = _Builder("mlp")
    b.buffer("x", "input")
    b.emit(ops.LOAD_V, "x", transform="norm01")
    b.const("w_hidden", model.w_hidden)
    b.const("b_hidden", model.b_hidden)
    b.const("w_output", model.w_output)
    b.const("b_output", model.b_output)
    b.buffer("h", "temp")
    b.emit(ops.GEMV, "h", ("x", "w_hidden"))
    b.emit(ops.ADD, "h", ("h", "b_hidden"))
    if model.config.step_activation:
        b.emit(ops.ACT, "h", ("h",), kernel="step")
    else:
        b.emit(
            ops.ACT, "h", ("h",),
            kernel="sigmoid", slope=float(model.config.sigmoid_slope),
        )
    b.buffer("o", "temp")
    b.emit(ops.GEMV, "o", ("h", "w_output"))
    b.emit(ops.ADD, "o", ("o", "b_output"))
    # The unit-slope output sigmoid is not redundant under argmax:
    # its float64 saturation produces exact ties the raw pre-activation
    # would break differently.  predict() applies it; so does the plan.
    b.emit(ops.ACT, "o", ("o",), kernel="sigmoid", slope=1.0)
    b.buffer("winner", "temp", "int64")
    b.emit(ops.THRESH, "winner", ("o",))
    b.store("labels", "winner")
    return b.finish()


def _lower_mlp_q(model) -> CompiledPlan:
    wf, af = model.weight_format, model.activation_format
    b = _Builder("mlp-q")
    b.buffer("x", "input")
    b.emit(ops.LOAD_V, "x", transform="norm01")
    b.const("w_hidden_codes", model.w_hidden_codes)
    b.const("w_output_codes", model.w_output_codes)
    # The legacy pipeline adds ``bias_codes.astype(f64) * w_scale``;
    # precomputing that float product is bit-identical (same two
    # operands, same single multiply) and keeps ADD a pure op.
    b.const(
        "bias_f_hidden",
        model.b_hidden_codes.astype(np.float64) * wf.scale,
    )
    b.const(
        "bias_f_output",
        model.b_output_codes.astype(np.float64) * wf.scale,
    )
    b.const("lut_slopes", model.lut.slopes)
    b.const("lut_intercepts", model.lut.intercepts)

    def layer(src: str, w: str, bias: str, dst: str) -> str:
        acc = b.buffer(f"{dst}_acc", "temp", "int64")
        b.emit(ops.GEMV, acc, (src, w), cast="int64")
        pre = b.buffer(f"{dst}_pre", "temp")
        # Two *sequential* rescales reproduce the legacy left-to-right
        # ``accum * act_scale * w_scale`` float order exactly.
        b.emit(ops.SCALE, pre, (acc,), scale=float(af.scale))
        b.emit(ops.SCALE, pre, (pre,), scale=float(wf.scale))
        b.emit(ops.ADD, pre, (pre, bias))
        return pre

    xq = b.buffer("xq", "temp", "int64")
    b.emit(
        ops.QUANT, xq, ("x",),
        scale=float(af.scale),
        min_code=int(af.min_code), max_code=int(af.max_code),
    )
    h_pre = layer(xq, "w_hidden_codes", "bias_f_hidden", "h")
    h_act = b.buffer("h_act", "temp")
    b.emit(
        ops.ACT, h_act, (h_pre, "lut_slopes", "lut_intercepts"),
        kernel="lut",
        x_min=float(model.lut.x_min), x_max=float(model.lut.x_max),
        segments=int(model.lut.segments),
    )
    hq = b.buffer("hq", "temp", "int64")
    b.emit(
        ops.QUANT, hq, (h_act,),
        scale=float(af.scale),
        min_code=int(af.min_code), max_code=int(af.max_code),
    )
    o_pre = layer(hq, "w_output_codes", "bias_f_output", "o")
    # predict() argmaxes the output *pre-activation* — no output LUT.
    b.buffer("winner", "temp", "int64")
    b.emit(ops.THRESH, "winner", (o_pre,))
    b.store("labels", "winner")
    return b.finish()


def _lower_counts_family(kind: str, model) -> CompiledPlan:
    """Shared lowering for the two deterministic-count SNNs."""
    if kind == "snnwot":
        config = model.network.config
        weights = model.weights
        labels = model.network.neuron_labels
        count_scale = None
    else:  # snnbp
        config = model.config
        weights = model.weights
        labels = model.neuron_labels
        count_scale = 1.0 / max(config.max_spikes_per_pixel, 1)
    if labels is None:
        raise CompileError(f"cannot compile an unlabeled {kind} model")
    b = _Builder(kind)
    b.buffer("x", "input")
    b.emit(ops.LOAD_V, "x", transform="raw")
    b.const("weights", weights)
    b.const("neuron_labels", np.asarray(labels))
    c = b.buffer("c", "temp")
    b.emit(
        ops.COUNTS, c, ("x",),
        duration=float(config.t_period),
        max_rate_interval=float(config.min_spike_interval),
    )
    if count_scale is not None:
        b.emit(ops.SCALE, c, (c,), scale=float(count_scale))
    p = b.buffer("p", "temp")
    b.emit(ops.GEMV, p, (c, "weights"))
    b.buffer("winner", "temp", "int64")
    b.emit(ops.THRESH, "winner", ("p",))
    b.buffer("y", "temp", "int64")
    b.emit(ops.TAKE, "y", ("winner", "neuron_labels"))
    b.store("labels", "y")
    return b.finish()


def _lower_snnwt(model) -> CompiledPlan:
    from ..snn.batched import TEST_SPIKE_STREAM

    if model.neuron_labels is None:
        raise CompileError(
            "cannot compile an unlabeled timed SNN; run the labeling pass"
        )
    b = _Builder("snnwt")
    b.buffer("x", "input")
    b.emit(ops.LOAD_V, "x", transform="raw")
    b.const("weights", model.weights)
    b.const("thresholds", model.thresholds)
    b.const("neuron_labels", np.asarray(model.neuron_labels))
    b.meta.update(
        config=model.config,
        coder=model.coder,
        seed=model.config.seed,
        stream=TEST_SPIKE_STREAM,
    )
    b.buffer("winner", "temp", "int64")
    b.emit(ops.LIF_STEP, "winner", ("x", "weights", "thresholds"))
    b.buffer("y", "temp", "int64")
    b.emit(ops.TAKE, "y", ("winner", "neuron_labels"))
    b.store("labels", "y")
    return b.finish()


def compile_model(model, kind: Optional[str] = None) -> CompiledPlan:
    """Lower one trained model onto the IR (timed: ``ir-compile`` phase).

    Raises :class:`CompileError` for unknown kinds, unlabeled SNNs,
    and models whose forward pass injects faults at run time.
    """
    with phase("ir-compile"):
        if kind is None:
            kind = kind_of(model)
        if kind not in PLAN_KINDS:
            raise CompileError(
                f"unknown model kind {kind!r}; known kinds: "
                f"{', '.join(PLAN_KINDS)}"
            )
        injector = getattr(model, "fault_injector", None)
        if injector is not None and not getattr(injector, "null", False):
            raise CompileError(
                f"{kind} model has a live fault injector; run-time spike "
                "corruption is not a pure dataflow"
            )
        if kind == "mlp":
            return _lower_mlp(model)
        if kind == "mlp-q":
            return _lower_mlp_q(model)
        if kind == "snnwot":
            return _lower_counts_family("snnwot", model)
        if kind == "snnbp":
            return _lower_counts_family("snnbp", model)
        return _lower_snnwt(model)
