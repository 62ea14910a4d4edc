"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every set-up is timed in a fresh
interpreter (``perfbench/child.py``); the serving workloads first fill a
model cache for the checkout (``.bench_build/perfbench/<profile>/serve-cache``) so
timed set-ups load models and never train them.  Host thread settings
are left at their defaults: thread-count variables are removed from the
children's environment, so the program's own threading is measured.

Workloads (``REPRO_SCALE=0.15`` throughout; the seed drives only the
generated inputs):

* ``serve-inproc-mlpq`` - in-process ``InferenceServer`` over the
  quantized MLP, default batch policy and backend; one generator
  thread keeps 64 requests, each carrying a test-set row, outstanding.
* ``serve-pool-snnwt`` - two-shard supervised ``ShardedPool`` over the
  timed SNN with index-only requests: the same closed loop, then an
  open loop at 300 requests/s timed from each request's due time.
* ``report`` - every registered experiment except ``sensitivity``,
  once on an empty model cache and once, in a fresh process, on the
  cache that pass filled; the seed shuffles the experiment order.

End-to-end metrics (``--trace 0``) are defined over each workload's
operations: requests for serving, report passes for ``report``.  With
``--trace 1`` a traced run reports every per-layer metric of
:mod:`perfbench.layers`, each layer's self time, the unattributed
remainder and the tracing overhead of every end-to-end metric.

The last line of standard output is the JSON result.  The run exits 1
when a correctness gate fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.stats import interquartile_mean, percentile, tail_summary  # noqa: E402
from perfbench.trace import load_spans  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
#: Requests the closed loop keeps in flight (4 x the default max_batch).
OUTSTANDING = 64
#: Serving throughput and CPU per request are interquartile means over
#: windows of this many seconds, pooled across the run's server
#: processes: a window stalled by the shared host falls in a discarded
#: quartile, and a run that mixes the GIL's fast and slow hand-off modes
#: reports their mix instead of flipping between them as a median would.
WINDOW = 0.5
#: Windows in which the hypervisor stole more of the VM's CPU time than
#: this share (one 10 ms tick of a 0.5 s window on two CPUs) measure the
#: neighbouring VMs, not the program; serving metrics leave them out.
STEAL_LIMIT = 0.01
CHILD_TIMEOUT = 175
BUILD_TIMEOUT = 850

#: ``full`` is the benchmark; ``smoke`` (``PERFBENCH_PROFILE=smoke``)
#: is the seconds-long variant the benchmark's own tests run.  A serving
#: run sets up ``setups`` servers and measures each for an equal share of
#: the seconds: the GIL hand-off mode a process settles into varies from
#: process to process, so more processes average it out.
PROFILES = {
    "full": {"scale": "0.15", "experiments": layers.EXPERIMENTS, "setups": 3},
    "smoke": {"scale": "0.05", "experiments": ("fig5", "table1", "table3"), "setups": 1},
}
PROFILE_NAME = os.environ.get("PERFBENCH_PROFILE", "full")
PROFILE = PROFILES[PROFILE_NAME]
WORK = ROOT / ".bench_build" / "perfbench" / PROFILE_NAME
#: SHA-256 of each profile's report tables, ``elapsed:`` lines removed.
REFERENCE = ROOT / "perfbench" / "report_tables.json"

#: Environment variables that pin thread counts or change the program's
#: defaults; children run without them.
_SCRUB = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "REPRO_IR_THREADS", "REPRO_IR_BACKEND", "REPRO_IR_TILE_BYTES",
    "REPRO_NO_CACHE", "REPRO_CACHE_MAX_BYTES", "REPRO_CACHE_DIR", "REPRO_SCALE", "PYTHONPATH",
)

WORKLOADS = {
    "serve-inproc-mlpq": {"kind": "serve", "model": "mlp-q", "jobs": 0, "rate": None,
                          "max_rps": 100_000},
    "serve-pool-snnwt": {"kind": "serve", "model": "snnwt", "jobs": 2, "rate": 300.0,
                         "max_rps": 20_000},
    "report": {"kind": "report"},
}

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def stop_session(proc: subprocess.Popen, grace: float = 3.0) -> None:
    """Stop a child and everything in its session, then reap the child.

    SIGTERM first: a child's multiprocessing resource tracker ignores it
    and, once the shards are gone, unlinks any shared memory they left.
    Whatever is still running after ``grace`` seconds gets SIGKILL.
    """
    try:
        os.killpg(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        proc.wait()
        return
    deadline = time.monotonic() + grace
    try:
        proc.wait(timeout=grace)
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, subprocess.TimeoutExpired):
        pass
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def unstolen(windows):
    """Windows in which the hypervisor stole at most :data:`STEAL_LIMIT` of
    the VM's CPU time, or the least-stolen half when fewer qualify."""
    kept = [w for w in windows if w["steal"] <= STEAL_LIMIT]
    if 2 * len(kept) < len(windows):
        kept = sorted(windows, key=lambda w: w["steal"])[: (len(windows) + 1) // 2]
    return kept


class RunFailed(RuntimeError):
    """A child process or a measurement could not produce a result."""


class Bench:
    def __init__(self, work: Path, seed: int, seconds: float, log=sys.stderr):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.log = log
        #: This run's child outputs, traces and report caches.
        self.scratch = work / f"run-{uuid.uuid4().hex}"
        self.scratch.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def env(self, cache: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in _SCRUB}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["REPRO_SCALE"] = PROFILE["scale"]
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def spawn(self, spec: dict, cache: Path, timeout: float = CHILD_TIMEOUT) -> dict:
        """Run one child to completion; returns its summary."""
        out = self.scratch / f"{spec['role']}-{uuid.uuid4().hex}.json"
        spec = {"seconds": self.seconds, **spec, "out": str(out), "seed": self.seed}
        args = [sys.executable, str(CHILD), json.dumps(spec)]
        t0 = time.perf_counter()
        # A session of its own lets the child be stopped together with any
        # pool shard it leaves behind.
        proc = subprocess.Popen(args + [repr(t0)], env=self.env(cache), cwd=ROOT,
                                stdout=self.log, stderr=self.log, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_session(proc)
        if code is None:
            raise RunFailed(f"{spec['role']} did not finish within {timeout}s")
        if code != 0 or not out.exists():
            raise RunFailed(f"{spec['role']} exited with status {code}")
        summary = json.loads(out.read_text())
        summary["trace_dir"] = spec.get("trace_dir")
        spans_path = Path(str(out) + ".spans")
        summary["span_files"] = [str(spans_path)] if spans_path.exists() else []
        return summary

    # -- serving ---------------------------------------------------------

    def serve_cache(self, workload: dict) -> Path:
        """The checkout's model cache, filled (by training) on first use."""
        cache = self.work / "serve-cache"
        marker = cache / f"built-{workload['model']}-{PROFILE['scale']}"
        if not marker.exists():
            self.spawn(dict(workload, role="serve-build"), cache, timeout=BUILD_TIMEOUT)
            marker.write_text("ok\n")
        return cache

    def serve(self, workload: dict, trace: bool):
        """Set up ``setups`` servers, each measured for an equal share of
        the run's seconds; metrics pool the windows of all of them."""
        cache = self.serve_cache(workload)
        count = 1 if trace else PROFILE["setups"]
        spec = dict(workload, role="serve-main", outstanding=OUTSTANDING, window=WINDOW,
                    seconds=self.seconds / PROFILE["setups"], trace=trace)
        mains = []
        for _ in range(count):
            trace_dir = self.trace_dir() if trace else None
            mains.append(self.spawn(dict(spec, trace_dir=trace_dir), cache))
        capacity = unstolen([w for m in mains for w in m["windows"]["capacity"]])
        timed = unstolen([w for m in mains for w in m["windows"]["latency"]])
        latency = [v for w in timed for v in w["latencies_ms"]]
        metrics = {
            "throughput_ops": interquartile_mean([w["throughput_ops"] for w in capacity]),
            "latency_p50_ms": percentile(latency, 50),
            "latency_p90_ms": percentile(latency, 90),
            "cpu_us_per_op": interquartile_mean([w["cpu_us_per_op"] for w in capacity]),
            "setup_s": statistics.median(m["setup_s"] for m in mains),
            "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in mains),
        }
        phases = [phase for m in mains for phase in m["phases"]]
        result = {
            "metrics": metrics,
            "attempted": sum(p["attempted"] for p in phases),
            "failed": sum(p["failed"] for p in phases),
            "checks": {
                key: all(m["checks"][key] for m in mains) for key in mains[0]["checks"]
            },
            "phases": phases,
            "tail": tail_summary([v for m in mains for v in m["latencies_ms"]]),
            "windows": {
                kind: (len(kept), sum(len(m["windows"][kind]) for m in mains),
                       statistics.fmean(w["steal"] for m in mains for w in m["windows"][kind]))
                for kind, kept in (("capacity", capacity), ("latency", timed))
            },
        }
        if trace:
            main = mains[0]
            main["jobs"] = workload["jobs"]
            spans = load_spans(
                main["span_files"] + glob.glob(os.path.join(main["trace_dir"], "shard-*.json"))
            )
            result["per_layer"] = layers.serving_layers(spans, main)
            result["spans"] = spans
        return result

    # -- report ----------------------------------------------------------

    def report(self, trace: bool):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        order = [str(x) for x in rng.permutation(PROFILE["experiments"])]
        cache = self.scratch / f"report-cache-{uuid.uuid4().hex}"
        cache.mkdir()
        passes = {}
        for which in ("cold", "warm"):
            trace_dir = self.trace_dir() if trace else None
            passes[which] = self.spawn(
                {"role": "report-pass", "order": order, "trace": trace,
                 "trace_dir": trace_dir}, cache)
        cold, warm = passes["cold"], passes["warm"]
        pass_ms = [cold["pass_s"] * 1e3, warm["pass_s"] * 1e3]
        metrics = {
            "throughput_ops": 2.0 / (cold["pass_s"] + warm["pass_s"]),
            "latency_p50_ms": percentile(pass_ms, 50),
            "latency_p90_ms": percentile(pass_ms, 90),
            "cpu_us_per_op": (cold["cpu_s"] + warm["cpu_s"]) / 2 * 1e6,
            "setup_s": statistics.median([cold["setup_s"], warm["setup_s"]]),
            "peak_rss_mb": max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
        }
        reference = json.loads(REFERENCE.read_text()).get(PROFILE_NAME)
        if cold["digest"] != reference:
            # Kept for a diff against a reference ``repro report`` run.
            (self.work / "report-tables.txt").write_text(cold["tables"])
        checks = {
            "cold_experiments_succeeded": not cold["failures"],
            "warm_experiments_succeeded": not warm["failures"],
            "warm_cache_misses_zero": warm["cache"]["misses"] == 0,
            "warm_tables_equal_cold": warm["digest"] == cold["digest"],
            "tables_equal_reference": cold["digest"] == reference,
        }
        result = {
            "metrics": metrics,
            "attempted": 2 * len(order),
            "failed": len(cold["failures"]) + len(warm["failures"]),
            "checks": checks,
            "failures": {"cold": cold["failures"], "warm": warm["failures"]},
            "report_cold_s": cold["pass_s"],
            "report_warm_s": warm["pass_s"],
            "digest": cold["digest"],
        }
        if trace:
            spans = load_spans(cold["span_files"] + warm["span_files"])
            result["per_layer"] = layers.report_layers(spans, passes)
            result["spans"] = spans
        return result

    def trace_dir(self) -> str:
        path = self.scratch / f"trace-{uuid.uuid4().hex}"
        path.mkdir()
        return str(path)

    def run(self, name: str, trace: bool) -> dict:
        workload = WORKLOADS[name]
        if workload["kind"] == "serve":
            return self.serve(workload, trace)
        return self.report(trace)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(name: str, result: dict, host: dict, out=sys.stdout) -> None:
    print(f"workload {name}", file=out)
    print("host " + json.dumps(host, sort_keys=True), file=out)
    verdict = all(result["checks"].values())
    print(f"correct {str(verdict).lower()} " + json.dumps(result["checks"], sort_keys=True), file=out)
    print(f"attempted {result['attempted']} failed {result['failed']}", file=out)
    for phase in result.get("phases", ()):
        line = f"  phase {phase['mode']}: attempted {phase['attempted']} failed {phase['failed']}"
        if "lateness_ms" in phase:
            late = phase["lateness_ms"]
            line += (f" generator_late_ms p50 {_fmt(late['p50'])} p99 {_fmt(late['p99'])}"
                     f" max {_fmt(late['max'])}")
        print(line, file=out)
    for kind, (kept, total, steal) in result.get("windows", {}).items():
        print(f"  {kind} windows kept {kept} of {total} x {WINDOW} s"
              f" (mean stolen CPU {steal * 100:.2f}%)", file=out)
    if "tail" in result:
        for key, row in result["tail"].items():
            print(f"  latency {key} {_fmt(row['value'])} ms (n={row['n']}, beyond={row['beyond']})",
                  file=out)
    if "report_cold_s" in result:
        print(f"  report_cold_s {_fmt(result['report_cold_s'])} s", file=out)
        print(f"  report_warm_s {_fmt(result['report_warm_s'])} s", file=out)
        print(f"  tables_sha256 {result['digest']}", file=out)
    units = dict(END_TO_END)
    for metric, value in result["metrics"].items():
        print(f"{metric} {_fmt(value)} {units[metric]}", file=out)


def print_trace(result: dict, untraced: dict, out=sys.stdout) -> None:
    print("per-layer self time (s):", file=out)
    for layer, calls, total, self_s in layers.self_time_rows(result["spans"]):
        print(f"  {layer:<32} calls {calls:>7}  total {total:10.4f}  self {self_s:10.4f}", file=out)
    print(f"  {'unattributed':<32} {result['per_layer']['unattributed_s']:.4f}", file=out)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for metric, value in result["per_layer"].items():
        print(f"{metric} {_fmt(value)} {units[metric]}", file=out)
    if untraced is None:
        print("tracing overhead: no untraced run of this workload in this checkout yet",
              file=out)
        return
    print("tracing overhead (traced - last untraced run):", file=out)
    for metric, value in result["metrics"].items():
        base = untraced[metric]
        print(f"  {metric} {_fmt(value - base)} ({_fmt((value - base) / base * 100)}%)", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child
    # and its shards are stopped and the run's files removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from perfbench.host import host_info

    bench = Bench(WORK, args.seed, args.seconds)
    # A traced run reports its overhead against the last untraced run
    # of the same workload in this checkout.
    last = WORK / f"last-{args.workload}.json"
    try:
        result = bench.run(args.workload, trace=bool(args.trace))
        if not args.trace:
            last.write_text(json.dumps(result["metrics"]))
    except RunFailed as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    host = host_info(ROOT, PROFILE["scale"], args.seed)
    print_result(args.workload, result, host)
    if args.trace:
        print_trace(result, json.loads(last.read_text()) if last.exists() else None)
        metrics = result["per_layer"]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = result["metrics"]
        units = dict(END_TO_END)
    if not all(math.isfinite(v) for v in metrics.values()):
        print("a metric is not finite (more failures than its percentile allows)", file=sys.stderr)
        return 1
    correct = all(result["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
