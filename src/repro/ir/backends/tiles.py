"""Exact fused GEMV kernels for the tiled executor.

Bit-identity is the design constraint, so every fast path here is
*provably* exact, not approximately equal:

* **Exact integer GEMM via dgemm** — when every partial sum of an
  integer matmul is bounded below ``2**53``, float64 dgemm of the
  integer-valued operands is exact (every intermediate is an exactly
  representable integer, so summation order cannot matter).  BLAS dgemm
  is ~3x faster than NumPy's int64 matmul on the quantized layers, so
  the int64 GEMV runs through it whenever the bound holds and falls
  back to the reference ``x @ w.T.astype(int64)`` otherwise.  BLAS
  blocks the dgemm itself; no row tiling is layered on top.
* **Fused QUANT+GEMV** — the quantize codes are produced directly as
  float64 (``clip(round(x/scale), ...)`` without the int64 cast) and
  fed straight into dgemm against float64 weight codes; same exactness
  bound, one materialization and one cast fewer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Largest |sum| for which float64 accumulation of integers is exact.
_EXACT_F64_BOUND = float(2**53)


def _exact_dgemm_ok(max_abs_x: float, max_abs_w: float, depth: int) -> bool:
    """Whether every partial sum fits the exact-float64 integer range."""
    return max_abs_x * max_abs_w * max(1, depth) < _EXACT_F64_BOUND


def exact_int_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T.astype(int64)`` — via exact dgemm when bounds allow.

    ``x`` and ``w`` hold integer *values* (any dtype).  Result is int64,
    bitwise the reference integer accumulate.  Falls back to the
    reference expression when the magnitude bound cannot be certified.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.size and w.size:
        max_x = float(np.max(np.abs(x)))
        max_w = float(np.max(np.abs(w)))
        if _exact_dgemm_ok(max_x, max_w, x.shape[-1]):
            acc = np.asarray(x, dtype=np.float64) @ np.asarray(
                w, dtype=np.float64
            ).T
            return acc.astype(np.int64)
    return x @ w.T.astype(np.int64)


def fused_quant_gemv(
    x: np.ndarray,
    scale: float,
    min_code: int,
    max_code: int,
    w: np.ndarray,
) -> Optional[np.ndarray]:
    """QUANT then int64-GEMV in one pass, result as exact-integer float64.

    Produces the quantize codes directly in float64 (identical values
    to ``kernels.quantize`` before its int64 cast) and contracts them
    against float64 weight codes in one dgemm.  Exact under the same
    ``2**53`` bound as :func:`exact_int_gemm`; callers fall back to the
    unfused pair when the bound fails (``None`` return).

    The caller must guarantee the QUANT destination is consumed only by
    this GEMV and the GEMV destination only by value-preserving float
    consumers (SCALE), since the int64 intermediates are never
    materialized.
    """
    codes = np.clip(
        np.round(np.asarray(x, dtype=np.float64) / scale),
        min_code,
        max_code,
    )
    w = np.asarray(w)
    max_code_abs = max(abs(float(min_code)), abs(float(max_code)))
    max_w = float(np.max(np.abs(w))) if w.size else 0.0
    if not _exact_dgemm_ok(max_code_abs, max_w, codes.shape[-1]):
        return None
    return codes @ np.asarray(w, dtype=np.float64).T
