"""Metrics export surfaces: Prometheus text exposition and ``repro top``.

Two operator-facing views of the same registry snapshot:

* :func:`render_prometheus` turns a :class:`MetricsRegistry` (or its
  ``snapshot()`` dict, e.g. a ``--metrics-out`` JSON file) into the
  Prometheus text exposition format -- counters as ``*_total``, gauges
  verbatim, histograms with cumulative ``_bucket{le=...}`` lines plus
  ``_sum``/``_count``, and interpolated p50/p95/p99 estimates as a
  ``*_quantile{quantile=...}`` gauge family. The ``repro metrics-export``
  subcommand wraps it so any scrape-based stack can ingest a run.
* :func:`render_top` reconstructs cluster/job state from a JSONL trace
  (optionally joined with a metrics snapshot) and renders the
  ``repro top`` table: active jobs, allocations, estimator MAPE per job,
  drift flags -- the "what is my cluster doing and can I trust its
  predictions" screen.

Everything here is read-only over artifacts other layers already
produce; rendering never needs the live simulation.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.estimators import SIGNAL_REMAINING, SIGNAL_SPEED
from repro.obs.registry import MetricsRegistry, quantile_from_snapshot
from repro.obs.tracer import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_CHECKPOINT_RECORDED,
    EVENT_DECISION,
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESTARTED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_PLACEMENT_DECIDED,
    EVENT_WRITE_FENCED,
)
from repro.report import format_table

#: Quantiles surfaced for every histogram (label value, estimator input).
EXPORT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 0.5),
    ("0.95", 0.95),
    ("0.99", 0.99),
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, namespace: str) -> str:
    """``engine.jobs_admitted`` -> ``repro_engine_jobs_admitted``."""
    sanitized = _NAME_RE.sub("_", name)
    prefix = _NAME_RE.sub("_", namespace)
    full = f"{prefix}_{sanitized}" if prefix else sanitized
    if full and full[0].isdigit():
        full = f"_{full}"
    return full


def _format_value(value: float) -> str:
    """Deterministic Prometheus sample rendering (ints without ``.0``)."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(
    source: Union[MetricsRegistry, Dict], namespace: str = "repro"
) -> str:
    """Render a registry (or its snapshot dict) as Prometheus text format.

    The output ends with a trailing newline, as the exposition format
    requires. Metric families are emitted in sorted registry-name order,
    so identical inputs produce byte-identical output (golden-testable).
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: List[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bucket in hist.get("buckets", []):
            cumulative += bucket["count"]
            edge = bucket["le"]
            le = "+Inf" if edge == "inf" else _format_value(float(edge))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
        quantile_metric = f"{metric}_quantile"
        lines.append(
            f"# HELP {quantile_metric} interpolated quantiles of {name}"
        )
        lines.append(f"# TYPE {quantile_metric} gauge")
        for label, q in EXPORT_QUANTILES:
            estimate = quantile_from_snapshot(hist, q)
            lines.append(
                f'{quantile_metric}{{quantile="{label}"}} '
                f"{_format_value(estimate)}"
            )

    return "\n".join(lines) + "\n"


# -- the ``repro top`` table ----------------------------------------------------


class _JobRow:
    """Mutable per-job state accumulated while scanning a trace."""

    __slots__ = (
        "job_id", "model", "mode", "state", "workers", "ps", "servers",
        "speed_errors", "remaining_errors", "drift_signals", "restarts",
    )

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.model = "?"
        self.mode = "?"
        self.state = "pending"
        self.workers = 0
        self.ps = 0
        self.servers = 0
        self.speed_errors: List[float] = []
        self.remaining_errors: List[float] = []
        self.drift_signals: set = set()
        self.restarts = 0


def top_state(events: Sequence[Dict]) -> Dict:
    """Fold a trace into the cluster/job state ``repro top`` renders.

    Returns ``{"jobs": {job_id: _JobRow}, "ticks": n, "last_tick": dict,
    "last_time": t, "drift_events": n}``; the scan is a single pass, so
    re-rendering on a live file is cheap.
    """
    jobs: Dict[str, _JobRow] = {}
    ticks = 0
    last_tick: Dict = {}
    last_time = 0.0
    drift_events = 0
    control = {
        "elections": 0,
        "depositions": 0,
        "fenced_writes": 0,
        "lease_regrants": 0,
        "checkpoints": 0,
    }
    decisions = {"grants": 0, "denials": 0, "shrinks": 0}

    def row(job_id: str) -> _JobRow:
        if job_id not in jobs:
            jobs[job_id] = _JobRow(job_id)
        return jobs[job_id]

    for event in events:
        kind = event.get("event")
        last_time = max(last_time, float(event.get("time", 0.0)))
        if kind == EVENT_JOB_ARRIVED:
            entry = row(event["job_id"])
            entry.model = event.get("model", "?")
            entry.mode = event.get("mode", "?")
            entry.state = "active"
        elif kind == EVENT_ALLOCATION_DECIDED:
            entry = row(event["job_id"])
            entry.workers = event.get("workers", 0)
            entry.ps = event.get("ps", 0)
            if entry.state != "done":
                entry.state = "running"
        elif kind == EVENT_PLACEMENT_DECIDED:
            row(event["job_id"]).servers = event.get("servers", 0)
        elif kind == EVENT_JOB_COMPLETED:
            row(event["job_id"]).state = "done"
        elif kind == EVENT_JOB_RESTARTED:
            row(event["job_id"]).restarts += 1
        elif kind == EVENT_ESTIMATOR_SAMPLE:
            entry = row(event["job_id"])
            error = float(event.get("error", 0.0))
            if event.get("signal") == SIGNAL_SPEED:
                entry.speed_errors.append(error)
            elif event.get("signal") == SIGNAL_REMAINING:
                entry.remaining_errors.append(error)
        elif kind == EVENT_ESTIMATOR_DRIFT:
            drift_events += 1
            row(event["job_id"]).drift_signals.add(
                event.get("signal", "?")
            )
        elif kind == EVENT_INTERVAL_TICK:
            ticks += 1
            last_tick = event
        elif kind == EVENT_LEADER_ELECTED:
            control["elections"] += 1
        elif kind == EVENT_LEADER_DEPOSED:
            control["depositions"] += 1
        elif kind == EVENT_WRITE_FENCED:
            control["fenced_writes"] += 1
        elif kind == EVENT_NODE_LEASE_REGRANT:
            control["lease_regrants"] += 1
        elif kind == EVENT_CHECKPOINT_RECORDED:
            control["checkpoints"] += 1
        elif kind == EVENT_DECISION:
            dkind = event.get("kind")
            if dkind == "grant":
                decisions["grants"] += 1
            elif dkind == "deny":
                decisions["denials"] += 1
            elif dkind == "shrink":
                decisions["shrinks"] += 1
    return {
        "jobs": jobs,
        "ticks": ticks,
        "last_tick": last_tick,
        "last_time": last_time,
        "drift_events": drift_events,
        "control": control,
        "decisions": decisions,
    }


def _mape(errors: Sequence[float]) -> Optional[float]:
    if not errors:
        return None
    return sum(abs(e) for e in errors) / len(errors)


def render_top(
    events: Sequence[Dict],
    metrics_snapshot: Optional[Dict] = None,
    max_jobs: Optional[int] = None,
) -> str:
    """The ``repro top`` screen: cluster header plus the per-job table."""
    state = top_state(events)
    jobs = state["jobs"]
    tick = state["last_tick"]

    lines: List[str] = []
    lines.append(
        f"cluster: {state['ticks']} interval(s), last t={state['last_time']:.0f}, "
        f"jobs {len(jobs)} "
        f"(running {sum(1 for j in jobs.values() if j.state == 'running')}, "
        f"done {sum(1 for j in jobs.values() if j.state == 'done')})"
    )
    if tick:
        lines.append(
            f"last interval: running={tick.get('running_jobs', '?')} "
            f"active={tick.get('active_jobs', '?')} "
            f"pending={tick.get('pending_jobs', tick.get('paused_jobs', '?'))}"
        )
    fleet_speed = _mape(
        [e for j in jobs.values() for e in j.speed_errors]
    )
    fleet_remaining = _mape(
        [e for j in jobs.values() for e in j.remaining_errors]
    )
    if fleet_speed is not None or fleet_remaining is not None:
        speed_text = "n/a" if fleet_speed is None else f"{100 * fleet_speed:.1f}%"
        remaining_text = (
            "n/a" if fleet_remaining is None else f"{100 * fleet_remaining:.1f}%"
        )
        lines.append(
            f"estimators: speed MAPE {speed_text}, loss-curve MAPE "
            f"{remaining_text}, drift events {state['drift_events']}"
        )
    control = state["control"]
    if any(control.values()):
        lines.append(
            "control plane: "
            + ", ".join(
                f"{name}={count}" for name, count in control.items() if count
            )
        )
    decisions = state["decisions"]
    if any(decisions.values()):
        lines.append(
            "decision ledger: "
            + ", ".join(
                f"{name}={count}"
                for name, count in decisions.items()
                if count
            )
        )
    if metrics_snapshot:
        counters = metrics_snapshot.get("counters", {})
        gauges = metrics_snapshot.get("gauges", {})
        lines.append(
            "metrics: intervals="
            f"{int(counters.get('engine.intervals', counters.get('loop.steps', 0)))}"
            f" rescales={int(counters.get('engine.rescales', 0))}"
            f" restarts={int(counters.get('faults.job_restarts', 0))}"
            f" active_jobs={gauges.get('engine.active_jobs', 0):.0f}"
        )

    rows = []
    ordered = sorted(
        jobs.values(), key=lambda j: (j.state == "done", j.job_id)
    )
    if max_jobs is not None:
        ordered = ordered[:max_jobs]
    for entry in ordered:
        speed_mape = _mape(entry.speed_errors)
        remaining_mape = _mape(entry.remaining_errors)
        rows.append(
            [
                entry.job_id,
                entry.model,
                entry.state,
                entry.workers,
                entry.ps,
                entry.servers,
                "-" if speed_mape is None else f"{100 * speed_mape:.1f}",
                "-" if remaining_mape is None else f"{100 * remaining_mape:.1f}",
                ",".join(sorted(entry.drift_signals)) or "-",
                entry.restarts,
            ]
        )
    lines.append("")
    lines.append(
        format_table(
            [
                "job", "model", "state", "w", "ps", "srv",
                "speedMAPE%", "lossMAPE%", "drift", "restarts",
            ],
            rows,
        )
    )
    return "\n".join(lines)
