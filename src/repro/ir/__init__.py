"""Unified execution IR: one lowering for all five model kinds.

Public surface:

* :mod:`repro.ir.ops` — the instruction set and :class:`CompiledPlan`.
* :mod:`repro.ir.compile` — ``compile_model`` lowerings.
* :mod:`repro.ir.execute` — ``run_plan``, the one plan executor (the
  tiled kernels of :mod:`repro.ir.backends`), and the numeric
  sentinels around it.
* :mod:`repro.ir.interpret` — ``run_plan_serial``, the golden model
  and the only other execution path: the oracle that tests and the
  serving audit lane compare against.  Nothing selects between the
  two.
* :mod:`repro.ir.plan_cache` — compile-once memo + content-addressed
  spike-train bundles.
* :mod:`repro.ir.cyclesim` — IR-driven cycle-accurate sweep pricing.
"""

from .compile import PLAN_KINDS, compile_model, kind_of
from .execute import run_plan
from .interpret import run_plan_serial
from .ops import (
    PLAN_CODE_VERSION,
    BufferSpec,
    CompiledPlan,
    Instruction,
)
from .plan_cache import get_plan, plan_cache_stats, reset_plan_cache
from .runtime import ExecutionContext

__all__ = [
    "PLAN_CODE_VERSION",
    "PLAN_KINDS",
    "BufferSpec",
    "CompiledPlan",
    "ExecutionContext",
    "Instruction",
    "compile_model",
    "get_plan",
    "kind_of",
    "plan_cache_stats",
    "reset_plan_cache",
    "run_plan",
    "run_plan_serial",
]
