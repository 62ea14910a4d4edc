"""Closed-loop serving benchmark: dynamic batching pays for itself.

Not part of the tier-1 suite (pytest ``testpaths`` excludes
``benchmarks/``).  Run it directly::

    PYTHONPATH=src python -m pytest benchmarks/test_serving.py -q -s

The experiment: serve the timed SNN (the model whose forward pass is a
millisecond-grid simulation, i.e. the one worth batching) through the
:mod:`repro.serve` stack and drive it with the closed-loop load
harness at a fixed client concurrency, sweeping the micro-batcher's
``max_batch`` over the scale's sweep (``{1, 4, 16, 64}`` at full
scale).  ``max_batch=1`` *is* batch-size-1 serving — every request
runs alone through the engine — so the sweep directly measures what
dynamic micro-batching buys at identical offered load.

Assertions:

* served labels are **bit-identical** to direct ``predict_batch``
  calls at every sweep point (batch composition never changes answers);
* ``max_batch=16`` achieves at least ``min_serving_speedup`` times the
  requests/second of ``max_batch=1`` (4x at full scale, 2x at the CI
  smoke scale);
* p99 request latency at the ``max_batch=16`` point stays under the
  scale's ceiling (batching must buy throughput without wrecking the
  tail).

A final record serves the same model through a 2-shard
:class:`~repro.serve.workers.ShardedPool` (zero-copy weights + dataset
in shared memory).  The server runs one batcher thread per shard and
the pool sends each batch to its least-loaded shard, so the record
asserts bit-identity and that both shards held a batch at once
(``peak_in_flight == jobs``, a count that holds at any runner speed).

Results are appended to ``BENCH_PR4.json`` at the repository root,
keyed by scale.  Environment knobs mirror
``benchmarks/test_perf_regression.py``: ``REPRO_BENCH_SCALE`` selects
``full`` (default) or ``ci``; ``REPRO_BENCH_PR4_OUTPUT`` overrides the
output path (the CI smoke job uploads it as an artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict

import numpy as np
import pytest

from repro.core.config import SNNConfig
from repro.datasets.digits import load_digits
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import InferenceServer
from repro.serve.loadgen import closed_loop
from repro.snn.batched import predict_batch
from repro.snn.network import SNNTrainer, SpikingNetwork

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = pathlib.Path(
    os.environ.get("REPRO_BENCH_PR4_OUTPUT", REPO_ROOT / "BENCH_PR4.json")
)

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")

#: Workload sizes and acceptance floors per scale.
PARAMS: Dict[str, dict] = {
    "full": {
        "n_train": 300,
        "n_test": 500,
        "snn_neurons": 50,
        "sweep": [1, 4, 16, 64],
        "concurrency": 32,
        "duration_seconds": 4.0,
        "max_wait_us": 2000.0,
        "min_serving_speedup": 4.0,
        "p99_ceiling_ms": 400.0,
        "pool_jobs": 2,
        "pool_duration_seconds": 3.0,
        "n_verify": 48,
    },
    "ci": {
        "n_train": 120,
        "n_test": 150,
        "snn_neurons": 20,
        "sweep": [1, 16],
        "concurrency": 16,
        "duration_seconds": 1.5,
        "max_wait_us": 2000.0,
        "min_serving_speedup": 2.0,
        "p99_ceiling_ms": 750.0,
        "pool_jobs": 2,
        "pool_duration_seconds": 1.0,
        "n_verify": 32,
    },
}

if SCALE not in PARAMS:  # pragma: no cover - config error guard
    raise RuntimeError(f"unknown REPRO_BENCH_SCALE {SCALE!r}")

P = PARAMS[SCALE]

#: Results accumulated across the module, dumped to JSON at teardown.
RECORDS: Dict[str, dict] = {}


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
        "params": P,
        "benchmarks": RECORDS,
    }
    existing["note"] = (
        "Closed-loop serving throughput from benchmarks/test_serving.py. "
        "One snnwt model on digits; requests_per_second is the server-side "
        "completion rate over the observation window; the max_batch sweep "
        "holds client concurrency fixed, so the ratio is the win from "
        "dynamic micro-batching alone.  Served labels are asserted "
        "bit-identical to direct predict_batch calls at every point."
    )
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def digits_pair():
    return load_digits(n_train=P["n_train"], n_test=P["n_test"], seed=7)


@pytest.fixture(scope="module")
def snn_model(digits_pair):
    train_set, _ = digits_pair
    config = (
        SNNConfig(epochs=1, seed=11).with_neurons(P["snn_neurons"]).validate()
    )
    network = SpikingNetwork(config)
    SNNTrainer(network).fit(train_set)
    return network


@pytest.fixture(scope="module")
def reference(snn_model, digits_pair):
    """Whole-test-set direct predictions — the bit-identity oracle."""
    _, test_set = digits_pair
    return predict_batch(snn_model, test_set.images)


def _verify(server, reference, n_images: int) -> None:
    rng = np.random.default_rng(17)
    indices = sorted(
        int(i)
        for i in rng.choice(n_images, size=min(P["n_verify"], n_images), replace=False)
    )
    served = server.predict_many("snnwt", indices=indices)
    np.testing.assert_array_equal(
        served,
        reference[indices],
        err_msg="served predictions diverged from direct predict_batch",
    )


def _drive(server, n_images: int) -> dict:
    """Warm, verify, load; returns the server-side metric snapshot."""
    client = closed_loop(
        server,
        "snnwt",
        n_images,
        concurrency=P["concurrency"],
        duration_seconds=P["duration_seconds"],
        seed=0,
    )
    snapshot = server.metrics["snnwt"].snapshot()
    snapshot["client"] = client
    return snapshot


class TestServingSweep:
    def test_micro_batching_throughput_and_bit_identity(
        self, snn_model, digits_pair, reference
    ):
        _, test_set = digits_pair
        n = len(test_set.images)
        rates: Dict[int, float] = {}
        for max_batch in P["sweep"]:
            server = InferenceServer.from_models(
                {"snnwt": snn_model},
                policy=BatchPolicy(
                    max_batch=max_batch,
                    max_wait_us=P["max_wait_us"],
                    max_queue=4096,
                ),
                images=test_set.images,
            )
            try:
                server.warm()  # pre-encode: measure serving, not encoding
                _verify(server, reference, n)
                server.metrics["snnwt"].reset()
                snapshot = _drive(server, n)
            finally:
                server.close()
            rates[max_batch] = snapshot["requests_per_second"]
            RECORDS[f"serve_closed_b{max_batch}"] = {
                "max_batch": max_batch,
                "concurrency": P["concurrency"],
                "completed": snapshot["completed"],
                "requests_per_second": snapshot["requests_per_second"],
                "mean_batch_size": snapshot["mean_batch_size"],
                "batch_occupancy": snapshot["batch_occupancy"],
                "queue_depth_peak": snapshot["queue_depth_peak"],
                "latency_ms": snapshot["latency_ms"],
                "client_rps": snapshot["client"]["client_rps"],
                "client_errors": snapshot["client"]["client_errors"],
                "bit_identical": True,  # _verify would have raised
            }
            assert snapshot["client"]["client_errors"] == 0
            assert snapshot["failed"] == 0

        speedup = rates[16] / max(rates[1], 1e-9)
        RECORDS["serve_speedup_16_vs_1"] = {
            "rps_b1": rates[1],
            "rps_b16": rates[16],
            "speedup": round(speedup, 2),
            "floor": P["min_serving_speedup"],
        }
        assert speedup >= P["min_serving_speedup"], (
            f"max_batch=16 serving achieved {rates[16]:.1f} req/s vs "
            f"{rates[1]:.1f} req/s at max_batch=1 — {speedup:.2f}x is below "
            f"the {P['min_serving_speedup']}x floor for scale {SCALE!r}"
        )

        p99 = RECORDS["serve_closed_b16"]["latency_ms"].get("p99")
        RECORDS["serve_p99_ceiling"] = {
            "p99_ms": p99,
            "ceiling_ms": P["p99_ceiling_ms"],
        }
        assert p99 is not None and p99 <= P["p99_ceiling_ms"], (
            f"p99 latency {p99}ms at max_batch=16 exceeds the "
            f"{P['p99_ceiling_ms']}ms ceiling for scale {SCALE!r}"
        )


class TestShardedPoolServing:
    def test_pool_backend_records_and_stays_bit_identical(
        self, snn_model, digits_pair, reference
    ):
        """2 worker shards over zero-copy shared weights + dataset.

        The server gives the model one batcher thread per shard, and
        the pool dispatches each batch to the shard with the fewest in
        flight, so the next batch runs while the previous one is still
        on a shard.  Asserts bit-identity and that the closed loop kept
        every shard busy at once (``peak_in_flight == jobs``); the
        req/s and latency land in BENCH_PR4.json.
        """
        from repro.serve.workers import ShardedPool

        _, test_set = digits_pair
        n = len(test_set.images)
        pool = ShardedPool(
            {"snnwt": snn_model},
            jobs=P["pool_jobs"],
            images=test_set.images,
            warm=True,
        )
        server = InferenceServer(
            pool=pool,
            policy=BatchPolicy(max_batch=16, max_wait_us=P["max_wait_us"]),
            images=test_set.images,
        )
        try:
            _verify(server, reference, n)
            server.metrics["snnwt"].reset()
            client = closed_loop(
                server,
                "snnwt",
                n,
                concurrency=P["concurrency"],
                duration_seconds=P["pool_duration_seconds"],
                seed=0,
            )
            snapshot = server.metrics["snnwt"].snapshot()
            peak_in_flight = pool.stats()["peak_in_flight"]
            RECORDS["serve_pool_b16"] = {
                "jobs": P["pool_jobs"],
                "max_batch": 16,
                "concurrency": P["concurrency"],
                "completed": snapshot["completed"],
                "requests_per_second": snapshot["requests_per_second"],
                "mean_batch_size": snapshot["mean_batch_size"],
                "latency_ms": snapshot["latency_ms"],
                "client_rps": client["client_rps"],
                "client_errors": client["client_errors"],
                "shared_nbytes": pool.nbytes_shared(),
                "peak_in_flight": peak_in_flight,
                "bit_identical": True,
            }
            assert client["client_errors"] == 0
            assert peak_in_flight == P["pool_jobs"], (
                f"at most {peak_in_flight} of {P['pool_jobs']} shards held "
                "a batch at once"
            )
        finally:
            server.close()
