"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — list every registered experiment;
* ``report [ids...]``           — run experiments (default: all) and
                                  print paper-vs-measured tables;
* ``recommend [options]``       — the Section 7 designer guidance
                                  (``--json`` for machine-readable
                                  output with stable keys);
* ``explore [options]``         — vectorized design-space sweeps over
                                  (family x fold x hidden x bits x
                                  node) grids: best-point queries
                                  under constraints, Pareto
                                  frontiers, and the SNN-vs-ANN
                                  comparison axis (exit 2 on unknown
                                  metric / family / node);
* ``sample <dataset>``          — ASCII contact sheet of a workload;
* ``fields``                    — train a small SNN and show its
                                  receptive fields as ASCII art;
* ``loadtest [options]``        — drive the inference serving layer
                                  with generated load and report
                                  throughput / latency / batching;
                                  ``--chaos <scenario>`` runs the
                                  deterministic chaos harness instead
                                  (``--chaos list`` enumerates every
                                  registered scenario);
* ``learn-serve [options]``     — live continual learning under load:
                                  windowed STDP on a serving tenant
                                  with shadow-gated promotion, guarded
                                  hot-swaps and automatic rollback
                                  (exit 0 only when every learning
                                  invariant holds);
* ``ir-dump <kind>``            — compile a small model of one kind
                                  (mlp, mlp-q, snnwt, snnwot, snnbp)
                                  to the unified execution IR and
                                  print the instruction listing and
                                  buffer table (``--json`` for the
                                  machine-readable plan document with
                                  stable keys; exit 2 on unknown
                                  kind).  Compiled plans run on one
                                  executor, checked against one
                                  oracle, the serial interpreter;
                                  nothing selects between the two;
* ``cache verify [options]``    — audit every artifact-cache entry
                                  against its SHA-256 sidecar (exit 1
                                  when any entry is corrupt;
                                  ``--evict`` deletes corrupt entries,
                                  ``--json`` for stable keys);
* ``serve-stats <file>``        — pretty-print a stats JSON written by
                                  ``loadtest --output``;
* ``serve-health <file>``       — readiness / liveness view of a stats
                                  JSON (exit 0 only when ready;
                                  ``--json`` for machine-readable
                                  output with stable keys).

The CLI is a thin shell over :mod:`repro.analysis`; everything it does
is available programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import analysis  # noqa: F401  (registers experiments)
from .analysis.report import render_result, run_and_render
from .analysis.visualize import ascii_image, dataset_contact_sheet
from .core import registry
from .core.config import mnist_mlp_config, mnist_snn_config
from .core.errors import ExperimentError
from .core.experiment import RunPolicy

#: Exit code for bad invocations (e.g. unknown experiment ids),
#: mirroring argparse's own usage-error convention.
EXIT_USAGE = 2


def _cmd_list(_args: argparse.Namespace) -> int:
    for spec in registry.iter_specs():
        location = f" ({spec.paper_location})" if spec.paper_location else ""
        print(f"{spec.experiment_id:<8} {spec.title}{location}")
    return 0


def _policy_from_args(args: argparse.Namespace):
    """Build a RunPolicy from report flags (None when none were given)."""
    degrade = tuple(
        float(s) for s in (args.degrade_scales or "").split(",") if s.strip()
    )
    if (
        args.retries == 0
        and args.timeout is None
        and args.backoff == 0.0
        and not degrade
    ):
        return None
    return RunPolicy(
        retries=args.retries,
        timeout_seconds=args.timeout,
        backoff_seconds=args.backoff,
        degrade_scales=degrade,
    ).validate()


def _cmd_report(args: argparse.Namespace) -> int:
    ids = args.ids or registry.all_ids()
    # Validate every id up front so a typo fails fast with the known-ids
    # message and a clean usage exit code instead of a traceback.
    for experiment_id in ids:
        try:
            registry.get(experiment_id)
        except ExperimentError as error:
            print(error, file=sys.stderr)
            return EXIT_USAGE
    try:
        policy = _policy_from_args(args)
    except ExperimentError as error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    _apply_cache_flags(args)
    timings = getattr(args, "timings", False)
    if timings:
        import time

        from .core import timing

        timing.reset()
        wall_start = time.perf_counter()
    status = 0
    if args.jobs > 1:
        from .analysis.common import shared_dataset_export
        from .core.experiment import run_experiments

        # Publish the standard datasets once; workers attach read-only
        # shared-memory views instead of regenerating per-process
        # copies (falls back to regeneration when shm is unavailable).
        with shared_dataset_export() as (initializer, initargs):
            results = run_experiments(
                list(ids),
                policy=policy,
                jobs=args.jobs,
                initializer=initializer,
                initargs=initargs,
            )
        for result in results:
            print(render_result(result))
    else:
        for experiment_id in ids:
            print(run_and_render(experiment_id, policy=policy))
    if timings:
        from .core.artifacts import CacheStats, cache_stats

        wall = time.perf_counter() - wall_start
        print(timing.report(wall=wall))
        print(f"  model cache: {CacheStats(**cache_stats()).summary()}")
        if args.jobs > 1:
            print(
                "  note: --jobs > 1 runs experiments in worker processes; "
                "their per-phase timers and cache counters are not "
                "aggregated here."
            )
    return status


def _apply_cache_flags(args: argparse.Namespace) -> None:
    """Propagate --no-cache / --cache-dir to the artifact-cache env.

    Environment variables (rather than plumbed parameters) so worker
    processes of a ``--jobs N`` run inherit the same cache settings.
    """
    import os

    if getattr(args, "no_cache", False):
        os.environ["REPRO_NO_CACHE"] = "1"
    if getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir


def _design_point_doc(point) -> dict:
    """Stable machine-readable rendering of an explorer DesignPoint."""
    return {
        "family": point.family,
        "variant": point.variant,
        "name": point.report.name,
        "topology": point.report.topology,
        "area_mm2": point.area_mm2,
        "energy_uj": point.energy_uj,
        "latency_us": point.latency_us,
        "power_w": point.report.power_w,
        "edp_uj_us": point.edp_uj_us,
        "supports_online_learning": point.supports_online_learning,
    }


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .hardware.explorer import Requirements, recommend

    requirements = Requirements(
        max_area_mm2=args.max_area,
        max_latency_us=args.max_latency,
        max_energy_uj=args.max_energy,
        needs_online_learning=args.online_learning,
        accuracy_critical=args.accuracy_critical,
    )
    result = recommend(
        requirements, mnist_mlp_config(), mnist_snn_config(), prefer=args.prefer
    )
    if getattr(args, "json", False):
        # Stable keys, matching the serve-health --json convention.
        doc = {
            "chosen": (
                _design_point_doc(result.chosen)
                if result.chosen is not None
                else None
            ),
            "feasible_count": len(result.feasible),
            "prefer": args.prefer,
            "reasons": list(result.reasons),
            "requirements": {
                "max_area_mm2": requirements.max_area_mm2,
                "max_latency_us": requirements.max_latency_us,
                "max_energy_uj": requirements.max_energy_uj,
                "needs_online_learning": requirements.needs_online_learning,
                "accuracy_critical": requirements.accuracy_critical,
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(result.summary())
    return 0 if result.chosen is not None else 1


def _parse_int_axis(spec: str) -> tuple:
    """Parse a grid axis: comma list and/or ``start:stop[:step]`` ranges."""
    values: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) not in (2, 3):
                raise ValueError(f"bad range {part!r}; use start:stop[:step]")
            start, stop = int(pieces[0]), int(pieces[1])
            step = int(pieces[2]) if len(pieces) == 3 else 1
            if step < 1:
                raise ValueError(f"range step must be >= 1 in {part!r}")
            values.extend(range(start, stop + 1, step))
        else:
            values.append(int(part))
    return tuple(dict.fromkeys(values))


def _cmd_explore(args: argparse.Namespace) -> int:
    from .core.errors import HardwareModelError
    from .hardware import sweep as sweep_mod

    _apply_cache_flags(args)
    try:
        hidden = _parse_int_axis(args.hidden)
        fold = _parse_int_axis(args.fold)
        bits = _parse_int_axis(args.bits)
    except ValueError as error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    families = tuple(
        s.strip() for s in args.families.split(",") if s.strip()
    )
    nodes = tuple(s.strip() for s in args.nodes.split(",") if s.strip())
    try:
        grid = sweep_mod.SweepGrid(
            hidden_sizes=hidden,
            families=families,
            fold_factors=fold,
            weight_bits=bits,
            nodes=nodes,
            mlp_config=mnist_mlp_config(),
            snn_config=mnist_snn_config(),
        ).validate()
        constraints = sweep_mod.Constraints(
            max_area_mm2=args.max_area,
            max_energy_uj=args.max_energy,
            max_latency_us=args.max_latency,
            max_power_w=args.max_power,
            needs_online_learning=args.online_learning,
        )
        result = sweep_mod.run_sweep(grid, jobs=args.jobs)
        doc: dict = {
            "grid": {
                "points": result.n_points,
                "families": sorted(set(families), key=sweep_mod.FAMILIES.index),
                "fold_factors": sorted(set(fold)),
                "weight_bits": sorted(set(bits)),
                "nodes": list(nodes),
                "hidden_sizes": len(hidden),
            },
            "constraints": {
                "max_area_mm2": args.max_area,
                "max_energy_uj": args.max_energy,
                "max_latency_us": args.max_latency,
                "max_power_w": args.max_power,
                "needs_online_learning": args.online_learning,
            },
            "metric": args.metric,
        }
        best = sweep_mod.best_index(result, args.metric, constraints)
        doc["best"] = result.point(best) if best is not None else None
        if args.top > 1:
            top = sweep_mod.top_indices(result, args.metric, args.top, constraints)
            doc["top"] = [result.point(int(i)) for i in top]
        if args.pareto:
            objectives = tuple(
                s.strip() for s in args.pareto.split(",") if s.strip()
            )
            idx = sweep_mod.pareto_indices(result, objectives)
            doc["pareto"] = {
                "objectives": list(objectives),
                "count": int(idx.shape[0]),
                "points": [
                    result.point(int(i)) for i in idx[: args.pareto_limit]
                ],
            }
        if args.compare:
            doc["compare"] = sweep_mod.snn_vs_ann(
                result, args.metric, constraints
            )
    except HardwareModelError as error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"exploration written to {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _render_explore(doc)
    return 0 if doc["best"] is not None else 1


def _format_point(point: dict) -> str:
    return (
        f"{point['family']} {point['variant']} h={point['hidden']} "
        f"w{point['weight_bits']} @{point['node']}: "
        f"area {point['total_area_mm2']:.3g} mm^2, "
        f"energy {point['energy_per_image_uj']:.3g} uJ, "
        f"latency {point['latency_us']:.3g} us, "
        f"edp {point['edp_uj_us']:.3g} uJ.us"
    )


def _render_explore(doc: dict) -> None:
    grid = doc["grid"]
    print(
        f"explored {grid['points']:,} design points "
        f"({'/'.join(grid['families'])}; fold {grid['fold_factors']}; "
        f"bits {grid['weight_bits']}; nodes {', '.join(grid['nodes'])})"
    )
    active = {
        k: v for k, v in doc["constraints"].items() if v not in (None, False)
    }
    if active:
        print("constraints: " + ", ".join(f"{k}={v}" for k, v in sorted(active.items())))
    if doc["best"] is None:
        print(f"no feasible design point for metric {doc['metric']!r}")
    else:
        print(f"best {doc['metric']}: {_format_point(doc['best'])}")
    for point in doc.get("top", [])[1:]:
        print(f"  next: {_format_point(point)}")
    if "pareto" in doc:
        pareto = doc["pareto"]
        print(
            f"pareto frontier ({' x '.join(pareto['objectives'])}): "
            f"{pareto['count']} point(s)"
        )
        for point in pareto["points"]:
            print(f"  {_format_point(point)}")
        if pareto["count"] > len(pareto["points"]):
            print(f"  ... {pareto['count'] - len(pareto['points'])} more")
    if "compare" in doc:
        comparison = doc["compare"]
        print(f"SNN vs ANN on {comparison['metric']}:")
        for side in ("ann", "snn"):
            point = comparison[side]
            label = side.upper()
            if point is None:
                print(f"  {label}: no feasible point")
            else:
                print(f"  {label}: {_format_point(point)}")
        if comparison["snn_over_ann"] is not None:
            print(
                f"  winner: {comparison['winner']} "
                f"(snn/ann = {comparison['snn_over_ann']:.3g})"
            )


def _cmd_sample(args: argparse.Namespace) -> int:
    from .datasets import load_digits, load_shapes, load_spoken

    loaders = {"digits": load_digits, "shapes": load_shapes, "spoken": load_spoken}
    if args.dataset not in loaders:
        print(f"unknown dataset {args.dataset!r}; choose from {sorted(loaders)}")
        return 1
    train, _test = loaders[args.dataset](n_train=max(args.count, 10), n_test=10)
    side = train.side
    sheet = dataset_contact_sheet(
        train.images[: args.count].astype(float), side, columns=args.columns
    )
    print(ascii_image(sheet))
    return 0


def _cmd_fields(args: argparse.Namespace) -> int:
    from .analysis.visualize import receptive_field_sheet
    from .datasets import load_digits
    from .snn.network import SNNTrainer, SpikingNetwork

    train, _test = load_digits(n_train=args.images, n_test=10)
    config = mnist_snn_config(epochs=args.epochs).with_neurons(args.neurons)
    network = SpikingNetwork(config)
    SNNTrainer(network).fit(train)
    sheet = receptive_field_sheet(network.weights, side=28, columns=args.columns)
    print(ascii_image(sheet))
    return 0


def _finish_chaos(payload, args: argparse.Namespace, chaos_passed) -> int:
    """Shared tail of every chaos run: render, verdict, optional dump."""
    from .serve.metrics import dump_stats, render_stats

    print(render_stats(payload))
    invariants = payload.get("chaos", {}).get("invariants", {})
    print(
        "chaos invariants: "
        + ", ".join(
            f"{k}={'yes' if v else 'NO'}" for k, v in sorted(invariants.items())
        )
    )
    if args.output:
        dump_stats(payload, args.output)
        print(f"stats written to {args.output}")
    return 0 if chaos_passed(payload) else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .core.errors import ServingError
    from .serve.loadgen import KNOWN_MODELS, run_loadtest
    from .serve.metrics import dump_stats, render_stats

    _apply_cache_flags(args)
    models = [s.strip() for s in args.model.split(",") if s.strip()]
    unknown = sorted(set(models) - set(KNOWN_MODELS))
    if not models or unknown:
        print(
            f"unknown model(s) {unknown or models}; "
            f"pick from {list(KNOWN_MODELS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not 0.0 <= args.audit_rate <= 1.0:
        print(
            f"--audit-rate must be in [0, 1], got {args.audit_rate}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.scrub_period is not None and args.scrub_period <= 0:
        print(
            f"--scrub-period must be positive, got {args.scrub_period}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.chaos is not None:
        from .serve.chaos import (
            LEARNING_SCENARIOS,
            SCENARIOS,
            chaos_passed,
            run_chaos,
            run_learning_chaos,
        )

        if args.chaos == "list":
            print("chaos scenarios (loadtest --chaos <id>):")
            for sid, scenario in sorted(SCENARIOS.items()):
                print(f"  {sid:<18} {scenario.description}")
            print("learning scenarios (learn-serve --chaos <id>):")
            for sid, scenario in sorted(LEARNING_SCENARIOS.items()):
                print(f"  {sid:<18} {scenario.description}")
            return 0
        if args.chaos in LEARNING_SCENARIOS:
            # Learning scenarios run the learn-serve driver; shape
            # knobs the scenario owns (jobs, windows) stay its own.
            try:
                payload = run_learning_chaos(
                    args.chaos,
                    dataset=args.dataset,
                    seed=args.seed,
                    concurrency=args.concurrency if args.concurrency else None,
                    max_batch=args.max_batch,
                    max_wait_us=args.max_wait_us,
                    max_queue=args.max_queue,
                )
            except ServingError as error:
                print(error, file=sys.stderr)
                return 1
            return _finish_chaos(payload, args, chaos_passed)
        if args.chaos not in SCENARIOS:
            print(
                f"unknown chaos scenario {args.chaos!r}; "
                f"pick one of {sorted(SCENARIOS) + sorted(LEARNING_SCENARIOS)} "
                "(or 'list')",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            payload = run_chaos(
                scenario=args.chaos,
                models=models,
                dataset=args.dataset,
                seed=args.seed,
                max_batch=args.max_batch,
                max_wait_us=args.max_wait_us,
                max_queue=args.max_queue,
                duration_seconds=args.duration if args.duration else None,
                concurrency=args.concurrency if args.concurrency else None,
                deadline_ms=args.deadline_ms,
                max_task_retries=args.max_retries,
            )
        except ServingError as error:
            print(error, file=sys.stderr)
            return 1
        return _finish_chaos(payload, args, chaos_passed)
    try:
        payload = run_loadtest(
            models=models,
            dataset=args.dataset,
            jobs=args.jobs,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            max_queue=args.max_queue,
            duration_seconds=args.duration if args.duration is not None else 5.0,
            concurrency=args.concurrency if args.concurrency is not None else 8,
            mode=args.mode,
            offered_rps=args.rps,
            seed=args.seed,
            verify=not args.no_verify,
            deadline_ms=args.deadline_ms,
            max_retries=args.max_retries,
            audit_rate=args.audit_rate,
            scrub_period=args.scrub_period,
        )
    except ServingError as error:
        print(error, file=sys.stderr)
        return 1
    print(render_stats(payload))
    verified = payload.get("bit_identical")
    if verified is not None:
        ok = all(verified.values())
        print(
            "bit-identical to direct predictions: "
            + (", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in sorted(verified.items())))
        )
        if not ok:
            return 1
    if args.output:
        dump_stats(payload, args.output)
        print(f"stats written to {args.output}")
    return 0


def _tiny_model_for_kind(kind: str):
    """A small untrained model of one kind (ir-dump needs shapes only)."""
    import numpy as np

    from .core.config import MLPConfig, SNNConfig

    if kind in ("mlp", "mlp-q"):
        from .mlp.network import MLP

        mlp = MLP(MLPConfig(n_hidden=8).validate())
        if kind == "mlp":
            return mlp
        from .mlp.quantized import QuantizedMLP

        return QuantizedMLP(mlp)
    snn_config = SNNConfig().with_neurons(10).validate()
    if kind == "snnbp":
        from .snn.snn_bp import BackPropSNN

        return BackPropSNN(snn_config)
    from .snn.network import SpikingNetwork

    network = SpikingNetwork(snn_config)
    # ir-dump shows structure, not accuracy: a fabricated labeling
    # pass is enough to satisfy the compiler's labeled-model guard.
    network.neuron_labels = np.arange(snn_config.n_neurons) % snn_config.n_labels
    if kind == "snnwt":
        return network
    from .snn.snn_wot import SNNWithoutTime

    return SNNWithoutTime(network)


def _cmd_ir_dump(args: argparse.Namespace) -> int:
    from .ir import PLAN_KINDS, compile_model

    if args.kind not in PLAN_KINDS:
        print(
            f"unknown model kind {args.kind!r}; pick from {list(PLAN_KINDS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    plan = compile_model(_tiny_model_for_kind(args.kind), kind=args.kind)
    if args.json:
        print(json.dumps(plan.to_doc(), indent=2, sort_keys=True))
    else:
        print(plan.listing())
    return 0


def _cmd_learn_serve(args: argparse.Namespace) -> int:
    """Live continual learning under load (``repro learn-serve``)."""
    from .core.errors import ServingError
    from .serve.chaos import LEARNING_SCENARIOS, chaos_passed
    from .serve.learner import run_learn_serve

    _apply_cache_flags(args)
    if args.chaos == "list":
        print("learning scenarios (learn-serve --chaos <id>):")
        for sid, scenario in sorted(LEARNING_SCENARIOS.items()):
            print(f"  {sid:<18} {scenario.description}")
        return 0
    if args.chaos not in LEARNING_SCENARIOS:
        print(
            f"unknown learning scenario {args.chaos!r}; "
            f"pick one of {sorted(LEARNING_SCENARIOS)} (or 'list')",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        payload = run_learn_serve(
            args.chaos,
            dataset=args.dataset,
            seed=args.seed,
            jobs=args.jobs,
            windows=args.windows,
            window_size=args.window_size,
            concurrency=args.concurrency,
            snapshot_dir=args.snapshot_dir,
        )
    except ServingError as error:
        print(error, file=sys.stderr)
        return 1
    return _finish_chaos(payload, args, chaos_passed)


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    """Offline cache audit: every entry against its SHA-256 sidecar.

    Exit 0 when every entry verifies, 1 when any is corrupt (the CI
    contract for the corruption-smoke job).  ``--evict`` deletes
    corrupt entries so the next run recomputes them from scratch.
    """
    from .core.artifacts import verify_cache

    _apply_cache_flags(args)
    report = verify_cache(evict=args.evict)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"cache directory: {report['directory']}")
        print(
            f"checked {report['checked']} entry(ies): "
            f"{report['verified']} verified, "
            f"{report['corrupt']} corrupt, "
            f"{report['missing_sidecar']} missing sidecar"
            + (f", {report['evicted']} evicted" if args.evict else "")
        )
        for entry in report["entries"]:
            if entry["status"] != "verified":
                suffix = "  [evicted]" if entry.get("evicted") else ""
                print(f"  {entry['status']:<16} {entry['path']}{suffix}")
    return 1 if report["corrupt"] else 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    from .serve.metrics import load_stats, render_stats

    try:
        payload = load_stats(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.file!r}: {error}", file=sys.stderr)
        return 1
    print(render_stats(payload))
    return 0


def _cmd_serve_health(args: argparse.Namespace) -> int:
    """Readiness probe over a stats payload: exit 0 only when ready."""
    from .serve.metrics import load_stats, render_health

    try:
        payload = load_stats(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.file!r}: {error}", file=sys.stderr)
        return 1
    health = payload.get("health", payload)
    ready = isinstance(health, dict) and bool(health.get("ready"))
    if getattr(args, "json", False):
        view = health if isinstance(health, dict) else {}
        doc = {
            "ready": ready,
            "live": bool(view.get("live", ready)),
            "models": view.get("models", {}),
            "pool": view.get("pool"),
            "learner": view.get("learner"),
            "integrity": view.get("integrity"),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_health(payload))
    return 0 if ready else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Neuromorphic Accelerators' (MICRO 2015)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments").set_defaults(
        fn=_cmd_list
    )

    report = subparsers.add_parser("report", help="run experiments and print tables")
    report.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    report.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per experiment (resilient runner)",
    )
    report.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per attempt",
    )
    report.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="initial retry backoff (doubles per retry)",
    )
    report.add_argument(
        "--degrade-scales",
        default="",
        metavar="S1,S2,...",
        help="comma-separated fallback scales tried after retries are exhausted",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent experiments across N worker processes "
        "(deterministic id-ordered output; 1 = serial)",
    )
    report.add_argument(
        "--timings",
        action="store_true",
        help="print a per-phase (train / eval / hardware-sim) wall-clock "
        "breakdown after the report",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed trained-model cache",
    )
    report.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the trained-model cache directory "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    report.set_defaults(fn=_cmd_report)

    recommend_parser = subparsers.add_parser(
        "recommend", help="designer guidance (paper question 3)"
    )
    recommend_parser.add_argument("--max-area", type=float, default=None)
    recommend_parser.add_argument("--max-latency", type=float, default=None)
    recommend_parser.add_argument("--max-energy", type=float, default=None)
    recommend_parser.add_argument("--online-learning", action="store_true")
    recommend_parser.add_argument("--accuracy-critical", action="store_true")
    recommend_parser.add_argument(
        "--prefer",
        choices=("area", "energy", "latency", "power", "edp"),
        default="energy",
    )
    recommend_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the recommendation as a stable-keys JSON document",
    )
    recommend_parser.set_defaults(fn=_cmd_recommend)

    explore = subparsers.add_parser(
        "explore",
        help="vectorized design-space sweep: best point, Pareto, SNN vs ANN",
    )
    explore.add_argument(
        "--hidden",
        default="10:300:10",
        metavar="SPEC",
        help="hidden-layer axis: comma list and/or start:stop[:step] ranges "
        "(default: 10:300:10)",
    )
    explore.add_argument(
        "--families",
        default="MLP,SNNwot,SNNwt,SNN-online",
        metavar="F1,F2,...",
        help="accelerator families to sweep (default: all four)",
    )
    explore.add_argument(
        "--fold",
        default="0,1,2,4,8,16",
        metavar="SPEC",
        help="fold factors ni; 0 = fully expanded (default: 0,1,2,4,8,16)",
    )
    explore.add_argument(
        "--bits",
        default="8",
        metavar="SPEC",
        help="weight bit widths (default: 8)",
    )
    explore.add_argument(
        "--nodes",
        default="65nm",
        metavar="N1,N2,...",
        help="technology nodes, e.g. 90nm,65nm,45nm,28nm (default: 65nm)",
    )
    explore.add_argument(
        "--metric",
        default="edp",
        help="ranking metric for --top/--compare: "
        "area | energy | latency | power | edp (default: edp)",
    )
    explore.add_argument("--max-area", type=float, default=None, metavar="MM2")
    explore.add_argument("--max-energy", type=float, default=None, metavar="UJ")
    explore.add_argument("--max-latency", type=float, default=None, metavar="US")
    explore.add_argument("--max-power", type=float, default=None, metavar="W")
    explore.add_argument(
        "--online-learning",
        action="store_true",
        help="restrict to designs with on-chip learning (SNN-online)",
    )
    explore.add_argument(
        "--top",
        type=int,
        default=1,
        metavar="K",
        help="also list the K best feasible points (default: 1)",
    )
    explore.add_argument(
        "--pareto",
        default=None,
        metavar="OBJ1,OBJ2[,...]",
        help="extract the Pareto frontier over these objectives",
    )
    explore.add_argument(
        "--pareto-limit",
        type=int,
        default=10,
        metavar="N",
        help="max frontier points to print / embed in JSON (default: 10)",
    )
    explore.add_argument(
        "--compare",
        action="store_true",
        help="report the best SNN vs best ANN design on --metric",
    )
    explore.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate sweep shards across N threads (1 = serial)",
    )
    explore.add_argument(
        "--json",
        action="store_true",
        help="emit the full result document as stable-keys JSON on stdout",
    )
    explore.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON document to FILE",
    )
    explore.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed sweep-shard cache",
    )
    explore.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the cache directory "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    explore.set_defaults(fn=_cmd_explore)

    sample = subparsers.add_parser("sample", help="ASCII contact sheet of a dataset")
    sample.add_argument("dataset", help="digits | shapes | spoken")
    sample.add_argument("--count", type=int, default=10)
    sample.add_argument("--columns", type=int, default=5)
    sample.set_defaults(fn=_cmd_sample)

    fields = subparsers.add_parser("fields", help="show trained SNN receptive fields")
    fields.add_argument("--neurons", type=int, default=20)
    fields.add_argument("--images", type=int, default=300)
    fields.add_argument("--epochs", type=int, default=1)
    fields.add_argument("--columns", type=int, default=5)
    fields.set_defaults(fn=_cmd_fields)

    loadtest = subparsers.add_parser(
        "loadtest", help="drive the serving layer with generated load"
    )
    loadtest.add_argument(
        "--model",
        default="snnwot",
        help="comma-separated served models: mlp, mlp-q, snnwt, snnwot, snnbp",
    )
    loadtest.add_argument(
        "--dataset", default="digits", help="digits | shapes | spoken"
    )
    loadtest.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker shard processes (0 = serve in-process)",
    )
    loadtest.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="largest coalesced batch per engine call",
    )
    loadtest.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        help="batching window opened by the first queued request",
    )
    loadtest.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="admission-control queue bound (beyond it requests shed)",
    )
    loadtest.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds of load per model (default 5; chaos scenarios "
        "bring their own)",
    )
    loadtest.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="closed-loop client threads (default 8; chaos scenarios "
        "bring their own)",
    )
    loadtest.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed = fixed concurrency; open = fixed arrival rate",
    )
    loadtest.add_argument(
        "--rps",
        type=float,
        default=200.0,
        help="offered requests/second (open mode)",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--chaos",
        default=None,
        metavar="SCENARIO",
        help="run a deterministic chaos scenario instead of a plain "
        "load run (see repro.serve.chaos.SCENARIOS; exit 2 on unknown)",
    )
    loadtest.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency budget; doomed work sheds with a "
        "typed DeadlineExceeded instead of queueing",
    )
    loadtest.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="shard deaths one task may survive before it is "
        "quarantined as poisonous",
    )
    loadtest.add_argument(
        "--audit-rate",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of served batches re-executed on the serial "
        "oracle and bit-compared (SDC audit lane; 0 disables and "
        "keeps the request path bit-identical to an audit-free run)",
    )
    loadtest.add_argument(
        "--scrub-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="background shared-memory integrity-scrub period "
        "(pool backends; default off)",
    )
    loadtest.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the served-vs-direct bit-identity check",
    )
    loadtest.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the full stats payload as JSON",
    )
    loadtest.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed trained-model cache",
    )
    loadtest.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the trained-model cache directory",
    )
    loadtest.set_defaults(fn=_cmd_loadtest)

    learn_serve = subparsers.add_parser(
        "learn-serve",
        help="live continual learning under load (exit 0 only when every "
        "learning invariant holds)",
    )
    learn_serve.add_argument(
        "--chaos",
        default="steady",
        metavar="SCENARIO",
        help="learning scenario id, or 'list' to enumerate (default: steady)",
    )
    learn_serve.add_argument(
        "--dataset",
        default="digits",
        choices=("digits", "shapes", "spoken"),
        help="labeled stream + probe dataset (default: digits)",
    )
    learn_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker shards per model (0 = in-process; default: scenario)",
    )
    learn_serve.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help="override the scenario's learning-window count",
    )
    learn_serve.add_argument(
        "--window-size",
        type=int,
        default=None,
        metavar="N",
        help="override the scenario's images per window",
    )
    learn_serve.add_argument(
        "--concurrency",
        type=int,
        default=None,
        metavar="N",
        help="closed-loop clients per tenant (default: scenario)",
    )
    learn_serve.add_argument("--seed", type=int, default=0)
    learn_serve.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="directory for versioned learner snapshots "
        "(default: <cache>/live-snapshots)",
    )
    learn_serve.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the stats payload as JSON",
    )
    learn_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trained-model cache for this run",
    )
    learn_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the trained-model cache directory",
    )
    learn_serve.set_defaults(fn=_cmd_learn_serve)

    ir_dump = subparsers.add_parser(
        "ir-dump",
        help="print a model kind's compiled execution-IR plan "
        "(exit 2 on unknown kind)",
    )
    ir_dump.add_argument(
        "kind", help="model kind: mlp | mlp-q | snnwt | snnwot | snnbp"
    )
    ir_dump.add_argument(
        "--json",
        action="store_true",
        help="emit the plan document as stable-keys JSON",
    )
    ir_dump.set_defaults(fn=_cmd_ir_dump)

    cache = subparsers.add_parser(
        "cache", help="artifact-cache maintenance (verify integrity)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="audit every cache entry against its SHA-256 sidecar "
        "(exit 1 when any entry is corrupt)",
    )
    cache_verify.add_argument(
        "--evict",
        action="store_true",
        help="delete corrupt entries so the next run recomputes them",
    )
    cache_verify.add_argument(
        "--json",
        action="store_true",
        help="emit the audit report as a stable-keys JSON document",
    )
    cache_verify.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="override the cache directory "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache_verify.set_defaults(fn=_cmd_cache_verify)

    serve_stats = subparsers.add_parser(
        "serve-stats", help="pretty-print a serving stats JSON file"
    )
    serve_stats.add_argument("file", help="stats JSON written by loadtest --output")
    serve_stats.set_defaults(fn=_cmd_serve_stats)

    serve_health = subparsers.add_parser(
        "serve-health",
        help="readiness/liveness view of a stats JSON (exit 0 only "
        "when ready)",
    )
    serve_health.add_argument(
        "file", help="stats JSON written by loadtest --output"
    )
    serve_health.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable health JSON with stable keys",
    )
    serve_health.set_defaults(fn=_cmd_serve_health)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
