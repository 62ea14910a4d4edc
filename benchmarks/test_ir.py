"""PR 8 acceptance benchmarks: compiled inference plans end to end.

Not part of the tier-1 suite (pytest ``testpaths`` excludes
``benchmarks/``).  Run it directly::

    PYTHONPATH=src python -m pytest benchmarks/test_ir.py -q -s

Three things are measured with a plain ``time.perf_counter`` clock and
appended to ``BENCH_PR8.json`` keyed by scale:

* **Compile cost** — lowering each of the five model kinds onto the
  IR, plus the plan-memo hit rate over a double ``get_plan`` pass
  (the serving pattern: every runner asks once, every stats call asks
  again).
* **Executor throughput** — warm plan evaluation of the timed SNN
  versus the PR 2 batched engine, :func:`~repro.snn.batched.predict_batch`
  (bit-identical labels, floor ``min_plan_speedup``), and the quantized
  MLP plan versus its direct ``predict_images`` hot path.
* **Cyclesim sweep pricing** — ``sample_with_cyclesim`` (one
  fold-invariant label pass per family + closed-form cycles) versus
  the scalar per-point ``predict_with_cycles`` walk over the same
  sampled design points; floor ``min_cyclesim_speedup``.

Environment knobs: ``REPRO_BENCH_SCALE`` (``full``/``ci``) and
``REPRO_BENCH_OUTPUT`` (JSON path override), as in the other
benchmark modules.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict

import numpy as np
import pytest

from repro.core.config import MLPConfig, SNNConfig
from repro.datasets.digits import load_digits
from repro.hardware.cyclesim import (
    FoldedMLPSimulator,
    FoldedSNNwotSimulator,
    FoldedSNNwtSimulator,
)
from repro.hardware.sweep import SweepGrid, run_sweep, sample_with_cyclesim
from repro.ir import compile_model, get_plan, run_plan
from repro.ir.plan_cache import (
    context_for,
    plan_cache_stats,
    reset_plan_cache,
)
from repro.mlp.network import MLP
from repro.mlp.quantized import QuantizedMLP
from repro.mlp.trainer import BackPropTrainer
from repro.snn.batched import predict_batch
from repro.snn.network import SNNTrainer, SpikingNetwork
from repro.snn.snn_bp import train_snn_bp
from repro.snn.snn_wot import SNNWithoutTime

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = pathlib.Path(
    os.environ.get("REPRO_BENCH_OUTPUT", REPO_ROOT / "BENCH_PR8.json")
)

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")

PARAMS: Dict[str, dict] = {
    "full": {
        "n_train": 300,
        "n_test": 400,
        "snn_neurons": 50,
        "mlp_hidden": 20,
        "mlp_epochs": 5,
        "min_plan_speedup": 1.0,
        "sweep_fold_factors": (1, 2, 4, 8, 12, 16),
        "sweep_weight_bits": (2, 4, 8),
        "cyclesim_images": 6,
        "min_cyclesim_speedup": 10.0,
    },
    "ci": {
        "n_train": 120,
        "n_test": 150,
        "snn_neurons": 20,
        "mlp_hidden": 10,
        "mlp_epochs": 2,
        "min_plan_speedup": 1.0,
        "sweep_fold_factors": (1, 4, 16),
        "sweep_weight_bits": (4, 8),
        "cyclesim_images": 3,
        "min_cyclesim_speedup": 3.0,
    },
}

if SCALE not in PARAMS:  # pragma: no cover - config error guard
    raise RuntimeError(f"unknown REPRO_BENCH_SCALE {SCALE!r}")

P = PARAMS[SCALE]

RECORDS: Dict[str, dict] = {}


def _record(name: str, **fields) -> None:
    RECORDS[name] = fields


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.fixture(scope="module", autouse=True)
def _dump_json():
    yield
    if not RECORDS:
        return
    existing: Dict[str, dict] = {}
    if OUTPUT_PATH.exists():
        try:
            existing = json.loads(OUTPUT_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    from repro.core.hostinfo import host_metadata

    existing.setdefault("scales", {})[SCALE] = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_metadata(REPO_ROOT),
        "params": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in P.items()
        },
        "benchmarks": RECORDS,
    }
    existing["note"] = (
        "Wall-clock numbers from benchmarks/test_ir.py: IR compile cost "
        "and plan-cache hit rate, warm plan-executor throughput vs the "
        "PR 2 batched engine and the direct MLP-q forward pass "
        "(bit-identical labels), and IR-driven cyclesim sweep pricing "
        "vs the scalar per-point walk.  Older scales may still carry "
        "shard_cold_start, the plan-shipping vs legacy-rebuild spawn "
        "comparison deleted with the legacy publish."
    )
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def digits_pair():
    return load_digits(n_train=P["n_train"], n_test=P["n_test"], seed=7)


@pytest.fixture(scope="module")
def trained_snn(digits_pair):
    train_set, _ = digits_pair
    config = (
        SNNConfig(epochs=1, seed=11).with_neurons(P["snn_neurons"]).validate()
    )
    trainer = SNNTrainer(SpikingNetwork(config))
    trainer.train(train_set)
    trainer.label(train_set)
    return trainer


@pytest.fixture(scope="module")
def trained_mlp(digits_pair):
    train_set, _ = digits_pair
    config = MLPConfig(
        n_inputs=train_set.n_inputs,
        n_hidden=P["mlp_hidden"],
        n_output=train_set.n_classes,
    ).validate()
    network = MLP(config)
    BackPropTrainer(network, batch_size=16).train(
        train_set, epochs=P["mlp_epochs"]
    )
    return network


@pytest.fixture(scope="module")
def all_models(trained_mlp, trained_snn, digits_pair):
    train_set, _ = digits_pair
    return {
        "mlp": trained_mlp,
        "mlp-q": QuantizedMLP(trained_mlp),
        "snnwt": trained_snn.network,
        "snnwot": SNNWithoutTime(trained_snn.network),
        "snnbp": train_snn_bp(
            SNNConfig(seed=11)
            .with_neurons(P["snn_neurons"])
            .validate(),
            train_set,
            epochs=1,
        ),
    }


class TestCompileAndCache:
    def test_compile_cost_and_memo_hit_rate(self, all_models):
        reset_plan_cache()
        compile_seconds = {}
        for kind, model in all_models.items():
            compile_seconds[kind] = min(
                _timed(lambda m=model: compile_model(m)) for _ in range(3)
            )
        # The serving pattern: every runner asks once (miss+compile),
        # every later caller asks again (hit).
        reset_plan_cache()
        for model in all_models.values():
            get_plan(model)
        for model in all_models.values():
            get_plan(model)
        stats = plan_cache_stats()
        lookups = stats["plan_hits"] + stats["plan_misses"]
        hit_rate = stats["plan_hits"] / lookups
        assert stats["plan_compiles"] == len(all_models)
        assert hit_rate == 0.5
        _record(
            "ir_compile",
            compile_ms={
                kind: round(seconds * 1e3, 3)
                for kind, seconds in compile_seconds.items()
            },
            memo_lookups=lookups,
            memo_hit_rate=hit_rate,
        )


class TestExecutorThroughput:
    def test_snnwt_plan_vs_pr2_engine(self, trained_snn, digits_pair):
        _, test_set = digits_pair
        trainer = trained_snn
        images = test_set.images
        n = len(images)

        legacy = predict_batch(trainer.network, images)
        planned = trainer.predict(test_set)  # warms the trains cache
        assert np.array_equal(planned, legacy), (
            "plan engine diverged from the PR 2 batched engine"
        )

        legacy_s = min(
            _timed(lambda: predict_batch(trainer.network, images))
            for _ in range(2)
        )
        plan_s = min(
            _timed(lambda: trainer.predict(test_set)) for _ in range(2)
        )
        speedup = legacy_s / plan_s
        _record(
            "snnwt_eval",
            images=n,
            legacy_seconds=round(legacy_s, 4),
            plan_seconds=round(plan_s, 4),
            legacy_rate=round(n / legacy_s, 1),
            plan_rate=round(n / plan_s, 1),
            speedup=round(speedup, 2),
        )
        assert speedup >= P["min_plan_speedup"], (
            f"warm plan evaluation ({plan_s:.3f}s) slower than the PR 2 "
            f"engine ({legacy_s:.3f}s); floor {P['min_plan_speedup']}x"
        )

    def test_mlp_q_plan_vs_legacy_hot_path(self, all_models, digits_pair):
        _, test_set = digits_pair
        model = all_models["mlp-q"]
        images = np.asarray(test_set.images)
        n = len(images)

        plan = compile_model(model)
        ctx = context_for(plan, images)
        legacy = model.predict_images(images)
        planned = run_plan(plan, images, ctx=ctx)
        assert np.array_equal(planned, legacy)

        legacy_s = min(
            _timed(lambda: model.predict_images(images)) for _ in range(3)
        )
        plan_s = min(
            _timed(lambda: run_plan(plan, images, ctx=ctx))
            for _ in range(3)
        )
        _record(
            "mlp_q_eval",
            images=n,
            legacy_seconds=round(legacy_s, 5),
            plan_seconds=round(plan_s, 5),
            legacy_rate=round(n / legacy_s, 1),
            plan_rate=round(n / plan_s, 1),
            plan_overhead_ratio=round(plan_s / legacy_s, 3),
        )
        # The plan walks the same kernels; anything past a 2x ratio
        # means the instruction walk itself regressed.
        assert plan_s <= 2.0 * legacy_s


class TestCyclesimSweep:
    def test_sampled_pricing_vs_scalar_walk(self, all_models, digits_pair):
        _, test_set = digits_pair
        images = np.asarray(test_set.images[: P["cyclesim_images"]])
        labels = np.asarray(test_set.labels[: P["cyclesim_images"]])
        network = all_models["snnwt"]
        models = {
            "MLP": all_models["mlp-q"],
            "SNNwot": all_models["snnwot"],
            "SNNwt": network,
        }
        grid = SweepGrid(
            hidden_sizes=(P["mlp_hidden"], P["snn_neurons"]),
            families=("MLP", "SNNwot", "SNNwt"),
            fold_factors=P["sweep_fold_factors"],
            weight_bits=P["sweep_weight_bits"],
            mlp_config=all_models["mlp"].config,
            snn_config=network.config,
        ).validate()
        result = run_sweep(grid)
        # Invalid corners (ni * weight_bits > 128) are dropped by the
        # grid, so ask for every surviving folded row of each family.
        n_samples = 3 * len(P["sweep_fold_factors"]) * len(
            P["sweep_weight_bits"]
        )

        kwargs = dict(labels=labels, n_samples=n_samples, seed=3)
        doc = sample_with_cyclesim(result, models, images, **kwargs)
        fast_s = _timed(
            lambda: sample_with_cyclesim(result, models, images, **kwargs)
        )

        def scalar_point(point):
            family, ni = point["family"], point["ni"]
            if family == "MLP":
                sim = FoldedMLPSimulator(models["MLP"], ni=ni)
                return sim.predict_with_cycles(
                    images.astype(np.float64) / 255.0
                )
            if family == "SNNwot":
                sim = FoldedSNNwotSimulator(models["SNNwot"], ni=ni)
                return sim.predict_with_cycles(images)
            sim = FoldedSNNwtSimulator(network, ni=ni, seed=1)
            return sim.predict_with_cycles(images)

        def scalar_walk():
            for point in doc["points"]:
                scalar_point(point)

        scalar_s = _timed(scalar_walk)
        speedup = scalar_s / fast_s
        _record(
            "cyclesim_sweep",
            points=doc["n_sampled"],
            images=len(images),
            fast_seconds=round(fast_s, 4),
            scalar_seconds=round(scalar_s, 4),
            fast_points_per_s=round(doc["n_sampled"] / fast_s, 1),
            scalar_points_per_s=round(doc["n_sampled"] / scalar_s, 1),
            speedup=round(speedup, 1),
        )
        assert doc["n_sampled"] >= 3 * len(P["sweep_fold_factors"])
        assert speedup >= P["min_cyclesim_speedup"], (
            f"IR-driven cyclesim sweep ({fast_s:.3f}s) must beat the "
            f"scalar per-point walk ({scalar_s:.3f}s) by at least "
            f"{P['min_cyclesim_speedup']}x; got {speedup:.1f}x"
        )
