"""One measured process of a benchmark run.

``run.py`` starts this file in a fresh interpreter for every set-up it
times, so set-up time runs from process start (the parent's clock
reading just before the spawn, on the shared monotonic clock) to
"ready".  Usage::

    python3 perfbench/child.py '<spec json>' <t0>

The spec names the role:

* ``serve-build``  set up one server on an empty model cache (training
  and caching its model), then exit;
* ``serve-main``   set up, check answers, run the timed phases, check
  answers again, collect resource counters;
* ``report-pass``  import, generate datasets, run the experiments in
  the given order and digest their tables.

The child writes a JSON summary to ``spec["out"]`` and, when traced,
its spans to ``spec["out"] + ".spans"``; pool shards write theirs to
``spec["trace_dir"]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time


def _proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a whole process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _shard_pids():
    import multiprocessing

    return sorted(child.pid for child in multiprocessing.active_children())


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def _build_server(spec):
    import numpy as np

    from repro.serve.batcher import BatchPolicy
    from repro.serve.engine import InferenceServer
    from repro.serve.loadgen import build_models

    model = spec["model"]
    built = build_models([model], dataset="digits")
    images = np.asarray(built["test"].images)
    if spec["jobs"] == 0:
        server = InferenceServer.from_models(
            built["models"], policy=BatchPolicy(), images=images
        )
        server.warm()
    else:
        from repro.serve.supervisor import SupervisorPolicy
        from repro.serve.workers import ShardedPool

        pool = ShardedPool(
            built["models"],
            jobs=spec["jobs"],
            images=images,
            warm=True,
            supervisor=SupervisorPolicy(),
        )
        server = InferenceServer(pool=pool, policy=BatchPolicy(), images=images)
    return server, built["models"][model], images


def _sample_identical(server, name, model, images, sample) -> bool:
    import numpy as np

    from repro.serve.loadgen import direct_predictions

    served = server.predict_many(name, indices=[int(i) for i in sample])
    expected = direct_predictions(model, images, [int(i) for i in sample])
    return bool(np.array_equal(served, expected))


def _phase_summary(phase):
    import numpy as np

    summary = {
        "mode": phase.mode,
        "start": phase.start,
        "end": phase.end,
        "drained": phase.drained,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "generator_cpu_s": phase.generator_cpu_s,
    }
    if phase.lateness is not None:
        late_ms = phase.lateness * 1e3
        summary["lateness_ms"] = {
            "p50": float(np.percentile(late_ms, 50)),
            "p99": float(np.percentile(late_ms, 99)),
            "max": float(late_ms.max()),
        }
    return summary


def _host_steal():
    """Ticks the hypervisor stole from this VM, and all ticks (/proc/stat)."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(v) for v in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _windows(phase, samples, capacity: bool, latency: bool):
    """Per-window rows between consecutive ``(time, cpu, steal, ticks)`` samples.

    Every row carries the share of CPU time stolen by the hypervisor.
    Capacity rows add throughput and CPU per completed request (the
    serving process's and its shards', minus the generator thread's
    own); latency rows add the latencies of the requests submitted (or
    due) inside the window.
    """
    import numpy as np

    from perfbench.loadgen import OK

    ok = phase.status == OK
    all_latency = phase.latencies_ms()
    rows = []
    for (lo, cpu_lo, steal_lo, ticks_lo), (hi, cpu_hi, steal_hi, ticks_hi) in zip(
        samples, samples[1:]
    ):
        row = {"steal": (steal_hi - steal_lo) / max(ticks_hi - ticks_lo, 1)}
        if capacity:
            done = int(np.count_nonzero(ok & (phase.t_done >= lo) & (phase.t_done < hi)))
            row["throughput_ops"] = done / (hi - lo)
            row["cpu_us_per_op"] = (cpu_hi - cpu_lo) / max(done, 1) * 1e6
        if latency:
            # Open-loop samples are taken when a new window's first request
            # is due, so submit (or due) time splits requests by window.
            sent = (phase.t_ref >= lo) & (phase.t_ref < hi)
            row["latencies_ms"] = [float(v) for v in all_latency[sent]]
        rows.append(row)
    return rows


def serve(spec, t0, tracer):
    import numpy as np

    from perfbench.loadgen import OK, LoadGenerator
    from repro.serve.loadgen import direct_predictions

    server, model, images = _build_server(spec)
    ready = time.perf_counter()
    summary = {"setup_s": ready - t0, "ready": ready}
    if spec["role"] == "serve-build":
        server.close()
        return summary
    name = spec["model"]
    n_rows = len(images)
    seed = int(spec["seed"])
    sample = np.random.default_rng([seed, 0x5EED]).choice(
        n_rows, size=min(32, n_rows), replace=False
    )

    def quiet(fn, *args):
        if tracer is not None:
            tracer.enabled = False
        try:
            return fn(*args)
        finally:
            if tracer is not None:
                tracer.enabled = True

    checks = {"sample_before": quiet(_sample_identical, server, name, model, images, sample)}
    if spec["jobs"] == 0:

        def send(index):
            return server.submit(name, image=images[index])

    else:

        def send(index):
            return server.submit(name, index=index)

    generator = LoadGenerator(
        send, n_rows, seed, capacity=int(spec["max_rps"] * spec["seconds"]) + 1024
    )
    shards = _shard_pids()
    samples = {"closed": [], "open": []}

    def sampler(mode):
        def on_window(now):
            shard_cpu = sum(_proc_cpu_s(pid) for pid in shards)
            cpu = time.process_time() + shard_cpu - time.thread_time()
            samples[mode].append((now, cpu, *_host_steal()))

        return on_window

    # With a fixed-rate phase, the capacity and fixed-rate phases share
    # the process's seconds equally, and latency comes from the latter.
    rate = spec.get("rate")
    seconds = spec["seconds"] / 2 if rate else spec["seconds"]
    capacity = generator.closed_loop(
        spec["outstanding"], seconds, window=spec["window"], on_window=sampler("closed")
    )
    phases = [capacity]
    windows = {"capacity": _windows(capacity, samples["closed"], True, not rate)}
    windows["latency"] = windows["capacity"]
    if rate:
        phases.append(generator.open_loop(
            rate, seconds, window=spec["window"], on_window=sampler("open")
        ))
        windows["latency"] = _windows(phases[-1], samples["open"], False, True)

    checks["sample_after"] = quiet(_sample_identical, server, name, model, images, sample)
    expected = quiet(direct_predictions, model, images, list(range(n_rows)))
    served_ok = True
    for phase in phases:
        ok = phase.status == OK
        served_ok &= bool(np.array_equal(phase.label[ok], expected[phase.index[ok]]))
    checks["all_served_labels"] = served_ok

    rss_kb = _proc_status_kb(os.getpid(), "VmHWM") + sum(
        _proc_status_kb(pid, "VmHWM") for pid in shards
    )
    stats = server.stats()
    from repro.core.artifacts import cache_stats
    from repro.ir.plan_cache import plan_cache_stats

    summary.update(
        checks=checks,
        phases=[_phase_summary(phase) for phase in phases],
        windows=windows,
        latencies_ms=[float(v) for v in phases[-1].latencies_ms()],
        peak_rss_mb=rss_kb / 1024.0,
        retained_samples=int(len(server.metrics[name].latencies_seconds())),
        pool={k: stats.get("pool", {}).get(k, 0) for k in ("requeues", "respawns")},
        plan_cache=plan_cache_stats(),
        cache=cache_stats(),
    )
    server.close()
    return summary


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

_TIMING_LINE = re.compile(r"^elapsed: .*$", re.MULTILINE)


def table_digest(texts) -> str:
    """SHA-256 of the id-ordered tables with ``elapsed:`` lines removed."""
    digest = hashlib.sha256()
    for experiment_id in sorted(texts):
        digest.update(_TIMING_LINE.sub("", texts[experiment_id]).encode())
    return digest.hexdigest()


def report(spec, t0, tracer):
    from repro.analysis import common

    common.digits()
    common.shapes()
    common.spoken()
    ready = time.perf_counter()
    summary = {"setup_s": ready - t0, "ready": ready}
    from repro.analysis.report import render_result
    from repro.core import registry
    from repro.core.artifacts import cache_stats
    from repro.ir.plan_cache import plan_cache_stats

    texts, failures = {}, {}
    cpu0 = time.process_time()
    for experiment_id in spec["order"]:
        try:
            texts[experiment_id] = render_result(registry.get(experiment_id).run())
        except Exception as error:  # noqa: BLE001 - a failed experiment fails the run
            failures[experiment_id] = repr(error)
    end = time.perf_counter()
    summary.update(
        pass_s=end - ready,
        end=end,
        cpu_s=time.process_time() - cpu0,
        tables="".join(_TIMING_LINE.sub("", texts[key]) for key in sorted(texts)),
        digest=table_digest(texts),
        failures=failures,
        cache=cache_stats(),
        plan_cache=plan_cache_stats(),
        peak_rss_mb=_proc_status_kb(os.getpid(), "VmHWM") / 1024.0,
    )
    return summary


def main(argv) -> int:
    spec = json.loads(argv[1])
    t0 = float(argv[2])
    role = spec["role"]
    if role.startswith("serve"):
        import repro.serve.loadgen  # noqa: F401
        import repro.serve.supervisor  # noqa: F401
        import repro.serve.workers  # noqa: F401
    else:
        import repro.analysis  # noqa: F401
        import repro.analysis.report  # noqa: F401
    imported = time.perf_counter()
    tracer = None
    if spec.get("trace"):
        from perfbench.trace import Tracer, install

        tracer = install(Tracer(), spec["trace_dir"])
        tracer.record("import", t0, imported)
    run = serve if role.startswith("serve") else report
    summary = run(spec, t0, tracer)
    summary.update(role=role, pid=os.getpid(), t0=t0, import_s=imported - t0)
    if tracer is not None:
        tracer.dump(spec["out"] + ".spans")
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
