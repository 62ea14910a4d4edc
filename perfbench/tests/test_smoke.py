"""Seconds-long runs of every workload through the real entry point.

Each workload runs untraced and traced under the ``smoke`` profile and
must print, as its last line, a correct result carrying exactly the
metric names and units ``BENCHMARK.json`` declares.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, profile="smoke"):
    env = dict(os.environ, PERFBENCH_PROFILE=profile)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
    )


def test_declared_metrics_match_the_code():
    sys.path.insert(0, str(ROOT))
    from perfbench import layers, run as runner

    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in BENCH["workloads"]] == list(runner.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_smoke(workload):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        proc = run(["--workload", workload, "--seed", "5", "--seconds", "1.5",
                    "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "tracing overhead (traced - last untraced run)" in proc.stdout
    assert "unattributed" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path, profile="full")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
