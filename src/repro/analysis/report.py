"""ASCII rendering of experiment results (paper-vs-measured).

``render_result`` prints one experiment as aligned text tables;
``run_and_render`` executes an experiment from the registry and
renders it; ``full_report`` iterates every registered experiment —
this is what regenerates the whole evaluation section in one call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..core import registry
from ..core.experiment import (
    ExperimentResult,
    ResilientRunner,
    RunPolicy,
    run_experiments,
)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(rows: List[Dict[str, Any]], title: str = "") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n  (no rows)\n" if title else "  (no rows)\n"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {c: len(c) for c in columns}
    rendered_rows = []
    for row in rows:
        rendered = {c: _format_value(row.get(c, "")) for c in columns}
        rendered_rows.append(rendered)
        for c in columns:
            widths[c] = max(widths[c], len(rendered[c]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    lines.append("  " + header)
    lines.append("  " + "-+-".join("-" * widths[c] for c in columns))
    for rendered in rendered_rows:
        lines.append("  " + " | ".join(rendered[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_result(result: ExperimentResult) -> str:
    """Render one experiment: measured rows, paper rows, notes.

    Resilient runs additionally render their structured failure
    record: total attempts, degradation status, and one line per
    failed attempt (kind, error, per-attempt wall clock).
    """
    parts = [f"== {result.experiment_id}: {result.title} =="]
    parts.append(render_table(result.rows, title="measured:"))
    if result.paper_rows:
        parts.append(render_table(result.paper_rows, title="paper:"))
    if result.notes:
        parts.append(f"notes: {result.notes}")
    if result.attempts > 1 or result.failures or result.degraded:
        status = "degraded" if result.degraded else "recovered"
        parts.append(
            f"resilience: {result.attempts} attempt(s), "
            f"{len(result.failures)} failure(s), {status}"
        )
        if result.failures:
            parts.append(render_table(result.failures, title="failed attempts:"))
    if result.elapsed_seconds:
        parts.append(f"elapsed: {result.elapsed_seconds:.1f}s")
    return "\n".join(parts) + "\n"


def run_and_render(
    experiment_id: str, policy: Optional[RunPolicy] = None, **kwargs: Any
) -> str:
    """Run one registered experiment and render it.

    With a :class:`RunPolicy`, the experiment runs under the
    :class:`ResilientRunner` (timeouts, retries, graceful degradation)
    instead of a bare call.
    """
    spec = registry.get(experiment_id)
    if policy is None:
        return render_result(spec.run(**kwargs))
    runner = ResilientRunner(policy)
    return render_result(runner.run_spec(spec, **kwargs))


def full_report(
    experiment_ids: Optional[Iterable[str]] = None,
    policy: Optional[RunPolicy] = None,
    jobs: int = 1,
    **kwargs: Any,
) -> str:
    """Run every (or the selected) registered experiment and render all.

    ``jobs > 1`` executes independent experiments across a process
    pool (:func:`repro.core.experiment.run_experiments`); rendering
    always happens here, in id order, so the report text is the same
    as a serial run's (modulo the wall-clock ``elapsed:`` lines).
    Pool workers resolve the standard datasets against one
    shared-memory segment published by this process
    (:func:`repro.analysis.common.shared_dataset_export`) instead of
    regenerating per-process copies; generation is deterministic, so
    the report text is byte-identical either way.
    """
    ids = list(experiment_ids) if experiment_ids is not None else registry.all_ids()
    if jobs > 1 and len(ids) > 1:
        from .common import shared_dataset_export

        with shared_dataset_export() as (initializer, initargs):
            results = run_experiments(
                ids,
                policy=policy,
                jobs=jobs,
                initializer=initializer,
                initargs=initargs,
                **kwargs,
            )
    else:
        results = run_experiments(ids, policy=policy, jobs=jobs, **kwargs)
    return "\n".join(render_result(result) for result in results)
