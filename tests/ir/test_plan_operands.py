"""Operands derived from a plan's constants are built once per context.

The tiled executor keeps the LIF scan's operands
(:class:`~repro.ir.backends.lif_scan.ScanOperands`), which depend only
on the plan, in its :class:`~repro.ir.runtime.ExecutionContext`.
These tests run several batches on one context, count each build, and
check the answers against the serial interpreter.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.errors import CompileError
from repro.ir import compile_model, run_plan
from repro.ir.backends import lif_scan
from repro.ir.interpret import run_plan_serial
from repro.ir.runtime import ExecutionContext
from repro.snn import batched


def _count(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _batches(images, size, n_batches):
    for start in range(0, size * n_batches, size):
        indices = list(range(start, start + size))
        yield images[indices], indices


class TestBuiltOncePerContext:
    @pytest.mark.skipif(
        batched.leak_scan_kernel() is None,
        reason="no CSR kernel for the LIF scan; the grid is the only readout",
    )
    def test_timed_snn_scan_operands(
        self, trained_snn, digits_small, monkeypatch
    ):
        """The plan path transposes the weights and checks the network
        once per context; every batch still runs the scan."""
        plan = compile_model(trained_snn, kind="snnwt")
        images = np.asarray(digits_small[1].images)
        counts = collections.Counter()
        _count(monkeypatch, lif_scan, "scan_winners", counts)
        real_of = lif_scan.ScanOperands.of.__func__

        def counting_of(cls, network):
            counts["ScanOperands.of"] += 1
            return real_of(cls, network)

        monkeypatch.setattr(
            lif_scan.ScanOperands, "of", classmethod(counting_of)
        )
        ctx = ExecutionContext(plan)
        for rows, indices in _batches(images, 6, 4):
            np.testing.assert_array_equal(
                run_plan(plan, rows, indices=indices, ctx=ctx),
                run_plan_serial(plan, rows, indices=indices),
            )
        assert counts["ScanOperands.of"] == 1
        assert counts["scan_winners"] == 4

    def test_context_of_another_plan_is_refused(
        self, quantized_mlp, trained_mlp, digits_small
    ):
        """Derived operands belong to the context's own plan."""
        plan = compile_model(quantized_mlp, kind="mlp-q")
        other = compile_model(trained_mlp, kind="mlp")
        rows = np.asarray(digits_small[1].images)[:2]
        with pytest.raises(CompileError, match="another plan"):
            run_plan(plan, rows, ctx=ExecutionContext(other))
