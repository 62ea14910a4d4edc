"""Edge-case tests for the IR kernels and the exact GEMV kernels.

The shapes the model suites never exercise: empty batches, single-row
batches, non-contiguous and Fortran-ordered inputs — plus the
exactness boundary of the dgemm integer trick (fallback above 2**53)
and the first-wins tie-break of the readout argmax.
"""

import numpy as np
import pytest

from repro.ir import kernels
from repro.ir.backends import tiles


@pytest.fixture()
def int_matrices(rng):
    x = rng.integers(-128, 128, size=(13, 24)).astype(np.int64)
    w = rng.integers(-128, 128, size=(7, 24)).astype(np.int64)
    return x, w


class TestKernelEdgeCases:
    def test_empty_batch(self):
        empty = np.empty((0, 10))
        w = np.ones((4, 10))
        assert kernels.gemv(empty, w).shape == (0, 4)
        assert kernels.quantize(empty, 0.1, -8, 7).shape == (0, 10)
        assert kernels.relu(empty).shape == (0, 10)
        assert kernels.argmax_rows(np.empty((0, 4))).shape == (0,)
        assert kernels.sigmoid(empty, 2.0).shape == (0, 10)

    def test_single_row(self, rng):
        x = rng.standard_normal((1, 6))
        w = rng.standard_normal((3, 6))
        np.testing.assert_array_equal(kernels.gemv(x, w), x @ w.T)
        assert kernels.argmax_rows(x).shape == (1,)

    def test_fortran_order_input(self, rng):
        x = np.asfortranarray(rng.standard_normal((9, 12)))
        w = rng.standard_normal((5, 12))
        np.testing.assert_array_equal(
            kernels.gemv(x, w), kernels.gemv(np.ascontiguousarray(x), w)
        )

    def test_noncontiguous_slice_input(self, rng):
        base = rng.standard_normal((20, 12))
        view = base[::2]  # stride-2 rows: not C-contiguous
        assert not view.flags["C_CONTIGUOUS"]
        w = rng.standard_normal((5, 12))
        np.testing.assert_array_equal(
            kernels.gemv(view, w), kernels.gemv(view.copy(), w)
        )

    def test_argmax_first_wins_tie_break(self):
        # Columns 1 and 3 tie at the max; the readout picks the first.
        scores = np.array([[0.0, 5.0, 2.0, 5.0], [5.0, 5.0, 5.0, 5.0]])
        got = kernels.argmax_rows(scores)
        assert got.tolist() == [1, 0]
        assert got.dtype == np.int64

    def test_quantize_matches_scalar_reference(self, rng):
        x = rng.standard_normal((4, 4)) * 10
        got = kernels.quantize(x, 0.25, -8, 7)
        ref = np.clip(np.round(x / 0.25), -8, 7).astype(np.int64)
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == np.int64


class TestExactIntGemm:
    def test_matches_reference_in_bound(self, int_matrices):
        x, w = int_matrices
        np.testing.assert_array_equal(
            tiles.exact_int_gemm(x, w), x @ w.T.astype(np.int64)
        )

    def test_fallback_above_bound_is_exact(self):
        # Values too large to certify the dgemm trick: the kernel must
        # fall back to the integer matmul, not return rounded floats.
        big = np.int64(1) << 40
        x = np.array([[big, big]], dtype=np.int64)
        w = np.array([[big, 1]], dtype=np.int64)
        assert not tiles._exact_dgemm_ok(float(big), float(big), 2)
        np.testing.assert_array_equal(
            tiles.exact_int_gemm(x, w), x @ w.T.astype(np.int64)
        )

    def test_empty_operands(self):
        out = tiles.exact_int_gemm(
            np.empty((0, 5), dtype=np.int64), np.ones((3, 5), dtype=np.int64)
        )
        assert out.shape == (0, 3) and out.dtype == np.int64

    def test_fortran_order_input(self, int_matrices):
        x, w = int_matrices
        np.testing.assert_array_equal(
            tiles.exact_int_gemm(np.asfortranarray(x), w),
            kernels.gemv(x, w, cast="int64"),
        )


class TestFusedQuantGemv:
    def test_matches_unfused_pair(self, rng):
        x = rng.standard_normal((11, 16)) * 3
        w = rng.integers(-128, 128, size=(5, 16)).astype(np.float64)
        acc = tiles.fused_quant_gemv(x, 0.05, -128, 127, w)
        codes = kernels.quantize(x, 0.05, -128, 127)
        ref = kernels.gemv(codes, w, cast="int64")
        # Fused result is exact-integer float64; value-identical.
        np.testing.assert_array_equal(acc.astype(np.int64), ref)
        np.testing.assert_array_equal(acc, ref.astype(np.float64))

    def test_returns_none_above_bound(self):
        w = np.full((2, 4), float(1 << 30))
        assert (
            tiles.fused_quant_gemv(
                np.ones((1, 4)), 1e-9, -(1 << 30), 1 << 30, w
            )
            is None
        )

    def test_empty_batch(self):
        acc = tiles.fused_quant_gemv(
            np.empty((0, 4)), 0.1, -8, 7, np.ones((3, 4))
        )
        assert acc.shape == (0, 3)
