"""Cache-blocked and fused GEMV/GEMM tile kernels (the tiled executor).

Bit-identity is the design constraint, so every fast path here is
*provably* exact, not approximately equal:

* **Exact integer GEMM via dgemm** — when every partial sum of an
  integer matmul is bounded below ``2**53``, float64 dgemm of the
  integer-valued operands is exact (every intermediate is an exactly
  representable integer, so summation order cannot matter).  BLAS dgemm
  is ~3x faster than NumPy's int64 matmul on the quantized layers, so
  the int64 GEMV runs through it whenever the bound holds and falls
  back to the reference ``x @ w.T.astype(int64)`` otherwise.
* **Row tiling only where order-exact** — float64 dgemm results *do*
  depend on the row count (BLAS picks different micro-kernels), so
  float GEMVs are never row-split.  Integer accumulates are
  order-exact, so they tile freely to the L2 budget.
* **Fused QUANT+GEMV** — the quantize codes are produced directly as
  float64 (``clip(round(x/scale), ...)`` without the int64 cast) and
  fed straight into dgemm against float64 weight codes; same exactness
  bound, one materialization and one cast fewer.
* **Fused GEMV+THRESH** — the count-coded readout (``counts @ w.T``
  then argmax) runs column tiles of the weight matrix with a running
  strictly-greater max, preserving NumPy's first-wins tie-break.  The
  default column tile is wider than every real model, so the shipped
  plans take the single-tile path whose scores are bitwise those of
  the unfused kernel.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Largest |sum| for which float64 accumulation of integers is exact.
_EXACT_F64_BOUND = float(2**53)

#: Per-tile working-set budget (bytes) — sized to a typical L2.
DEFAULT_TILE_BYTES = 256 * 1024

#: Column-tile width for the fused GEMV+THRESH readout.  Wider than
#: every shipped model's output layer, so real plans run single-tile
#: (bitwise the unfused kernel); the multi-tile path is covered by the
#: kernel tests with provably exact integer-valued inputs.
DEFAULT_COL_TILE = 512


def row_blocks(
    n_rows: int, row_bytes: int, target_bytes: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``n_rows`` into contiguous ``[start, stop)`` L2-sized blocks.

    ``row_bytes`` is the per-row working set (input row + widest
    intermediate).  Always returns at least one block; never returns an
    empty block for ``n_rows == 0`` (the empty batch is one ``(0, 0)``
    block so callers keep their shape discipline).
    """
    if n_rows <= 0:
        return [(0, 0)]
    budget = DEFAULT_TILE_BYTES if target_bytes is None else int(target_bytes)
    rows = max(1, budget // max(1, int(row_bytes)))
    return [
        (start, min(start + rows, n_rows))
        for start in range(0, n_rows, rows)
    ]


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


def tiled_gemv(x: np.ndarray, w: np.ndarray, cast: str = "") -> np.ndarray:
    """The tiled GEMV: tiled/exact integer path, single-call float path.

    ``cast="int64"`` routes through :func:`exact_int_gemm`, row-tiled to
    the L2 budget (integer sums are order-exact, so tiling is free).
    Float GEMVs run as one dgemm call: BLAS float64 results depend on
    the operand row count, so splitting them would break bit-identity
    with the serial interpreter's whole-row product.
    """
    if cast != "int64":
        return x @ w.T
    x = np.atleast_2d(np.asarray(x))
    n_rows = x.shape[0]
    row_bytes = (x.shape[-1] + w.shape[0]) * 8
    blocks = row_blocks(n_rows, row_bytes)
    if len(blocks) <= 1:
        return exact_int_gemm(x, w)
    out = np.empty((n_rows, w.shape[0]), dtype=np.int64)
    for start, stop in blocks:
        out[start:stop] = exact_int_gemm(x[start:stop], w)
    return out


def fused_quant_gemv(
    x: np.ndarray,
    scale: float,
    min_code: int,
    max_code: int,
    w: np.ndarray,
) -> np.ndarray:
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


def fused_gemv_thresh(
    x: np.ndarray, w: np.ndarray, col_tile: int = DEFAULT_COL_TILE
) -> np.ndarray:
    """``argmax(x @ w.T, axis=-1)`` without materializing wide scores.

    Column tiles keep the score working set inside L2 for wide output
    layers; the running comparison is strictly-greater, so the first
    maximal column wins exactly like ``np.argmax`` over the full row.
    """
    x = np.atleast_2d(np.asarray(x))
    n_out = w.shape[0]
    if n_out <= col_tile:
        scores = x @ w.T
        return np.argmax(scores, axis=-1).astype(np.int64)
    best = np.full(x.shape[0], -np.inf, dtype=np.float64)
    arg = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.arange(x.shape[0])
    for start in range(0, n_out, col_tile):
        scores = x @ w[start : start + col_tile].T
        local = np.argmax(scores, axis=-1)
        local_best = scores[rows, local]
        better = local_best > best
        arg = np.where(better, local + start, arg)
        best = np.where(better, local_best, best)
    return arg.astype(np.int64)
