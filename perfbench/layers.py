"""The traced run: which public calls are wrapped, and the per-layer metrics.

A traced run builds the workload exactly as an untraced one, installs one
:class:`~tracing.SpanRecorder` wrapper per layer entry point, runs, and
removes every wrapper again. Each wrapper sits where the caller looks the
name up: ``fit_loss_curve`` in :mod:`repro.core.convergence`,
``paa_partition`` in :mod:`repro.sim.runtime`, the scheduler instance's
``allocation_policy`` / ``placement_policy``, and so on.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict

import repro.core.convergence
import repro.core.speed
import repro.deploy.loop
import repro.fitting.loss_curve
import repro.fitting.speed_model
import repro.sim.runtime
from repro.cluster.cluster import Cluster
from repro.core.convergence import ConvergenceEstimator
from repro.core.speed import SpeedEstimator
from repro.datastore.hdfs import ChunkAssignment
from repro.k8s.kvstore import KVStore
from repro.sim.runtime import RuntimeJob
from repro.workloads.speed import StepTimeModel
from tracing import SpanRecorder

#: (metric, unit, kind). ``count`` metrics are deterministic for a seed and
#: are compared across runs; ``time`` metrics are host measurements.
METRICS = (
    ("sim.intervals", "count", "count"),
    ("sim.self_s", "s", "time"),
    ("sim.self_share", "ratio", "time"),
    ("sim.runtime.view.calls", "count", "count"),
    ("sim.runtime.view.s", "s", "time"),
    ("core.convergence.fit.calls", "count", "count"),
    ("core.convergence.fit.s", "s", "time"),
    ("core.convergence.fit.fresh_share", "ratio", "count"),
    ("core.convergence.remaining_mape", "ratio", "count"),
    ("core.speed.fit.calls", "count", "count"),
    ("core.speed.fit.s", "s", "time"),
    ("fitting.fit_loss_curve.calls", "count", "count"),
    ("fitting.fit_loss_curve.s", "s", "time"),
    ("fitting.fit_speed_model.calls", "count", "count"),
    ("fitting.fit_speed_model.s", "s", "time"),
    ("fitting.nnls.calls", "count", "count"),
    ("fitting.nnls.s", "s", "time"),
    ("cluster.snapshot.calls", "count", "count"),
    ("cluster.snapshot.s", "s", "time"),
    ("schedulers.schedule.calls", "count", "count"),
    ("schedulers.schedule.s", "s", "time"),
    ("schedulers.schedule.self_s", "s", "time"),
    ("schedulers.place_retries", "count", "count"),
    ("core.allocation.allocate.calls", "count", "count"),
    ("core.allocation.allocate.s", "s", "time"),
    ("core.allocation.tasks_granted", "count", "count"),
    ("core.placement.place.calls", "count", "count"),
    ("core.placement.place.s", "s", "time"),
    ("core.placement.requests", "count", "count"),
    ("core.placement.placed_share", "ratio", "count"),
    ("core.placement.servers_per_job", "servers", "count"),
    ("ps.paa_partition.calls", "count", "count"),
    ("ps.paa_partition.s", "s", "time"),
    ("ps.paa_partition.distinct_share", "ratio", "count"),
    ("workloads.speed.calls", "count", "count"),
    ("workloads.speed.s", "s", "time"),
    ("datastore.rebalance.calls", "count", "count"),
    ("datastore.rebalance.s", "s", "time"),
    ("deploy.step.calls", "count", "count"),
    ("deploy.step.self_s", "s", "time"),
    ("deploy.step.self_share", "ratio", "time"),
    ("deploy.cluster_from_api.s", "s", "time"),
    ("deploy.sweep_node_leases.s", "s", "time"),
    ("k8s.reconcile.s", "s", "time"),
    ("k8s.reconcile.self_s", "s", "time"),
    ("k8s.rescales_attempted", "count", "count"),
    ("k8s.rescales_rolled_back", "count", "count"),
    ("k8s.rescale_applied_share", "ratio", "count"),
    ("k8s.api.list_pods.calls", "count", "count"),
    ("k8s.api.list_pods.s", "s", "time"),
    ("k8s.api.create_pod.calls", "count", "count"),
    ("k8s.api.bind_pod.calls", "count", "count"),
    ("k8s.api.bind_pod.failed", "count", "count"),
    ("k8s.api.delete_pod.calls", "count", "count"),
    ("k8s.kvstore.ops", "count", "count"),
    ("k8s.kvstore.s", "s", "time"),
    ("obs.traced_run_s", "s", "time"),
    ("obs.trace_overhead_share", "ratio", "time"),
    ("obs.host_slowdown", "ratio", "time"),
)

#: Wrappers on module- and class-level names, installed for every workload.
STATIC_TARGETS = (
    (repro.core.convergence, "fit_loss_curve", "fitting.fit_loss_curve"),
    (repro.core.speed, "fit_speed_model", "fitting.fit_speed_model"),
    (repro.fitting.loss_curve, "nnls", "fitting.nnls"),
    (repro.fitting.speed_model, "nnls", "fitting.nnls"),
    (repro.deploy.loop, "cluster_from_api", "deploy.cluster_from_api"),
    (ConvergenceEstimator, "fit", "core.convergence.fit"),
    (SpeedEstimator, "fit", "core.speed.fit"),
    (Cluster, "snapshot", "cluster.snapshot"),
    (StepTimeModel, "speed", "workloads.speed"),
    (ChunkAssignment, "rebalance", "datastore.rebalance"),
)
KVSTORE_METHODS = tuple(
    attr
    for attr, value in vars(KVStore).items()
    if inspect.isfunction(value)
    and (not attr.startswith("_") or attr in ("__len__", "__contains__"))
)


@dataclass
class TracedRun:
    result: object
    recorder: SpanRecorder
    counts: Dict[str, float]
    metrics: Dict[str, float]


def _install(recorder, setup):
    for owner, attr, name in STATIC_TARGETS:
        recorder.wrap(owner, attr, name)
    for attr in KVSTORE_METHODS:
        recorder.wrap(KVStore, attr, "k8s.kvstore")

    def view_after(sid, args, kwargs, view):
        job = args[0]
        recorder.payload[sid] = (job.spec.job_id, job.steps_done, view.remaining_steps)

    recorder.wrap(RuntimeJob, "view", "sim.runtime.view", after=view_after)

    def paa_after(sid, args, kwargs, result):
        blocks, num_ps = args[0], args[1] if len(args) > 1 else kwargs["num_ps"]
        recorder.payload[sid] = (tuple(b.size for b in blocks), num_ps)

    recorder.wrap(repro.sim.runtime, "paa_partition", "ps.paa_partition", after=paa_after)

    scheduler = setup.loop.scheduler if hasattr(setup, "loop") else setup.scheduler
    recorder.wrap(scheduler, "schedule", "schedulers.schedule")

    def allocate_after(sid, args, kwargs, allocations):
        recorder.payload[sid] = sum(a.workers + a.ps for a in allocations.values())

    recorder.wrap(
        scheduler, "allocation_policy", "core.allocation.allocate", after=allocate_after
    )

    def place_after(sid, args, kwargs, placement):
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        recorder.payload[sid] = (
            len(requests),
            len(placement.layouts),
            sum(len(layout) for layout in placement.layouts.values()),
        )

    recorder.wrap(
        scheduler, "placement_policy", "core.placement.place", after=place_after
    )

    if hasattr(setup, "loop"):
        loop = setup.loop
        recorder.wrap(loop, "step", "deploy.step")
        recorder.wrap(loop, "sweep_node_leases", "deploy.sweep_node_leases")

        def reconcile_after(sid, args, kwargs, report):
            recorder.payload[sid] = (
                len(report.jobs_scaled),
                len(report.jobs_rolled_back),
                len(report.jobs_failed),
            )

        recorder.wrap(loop.controller, "reconcile", "k8s.reconcile", after=reconcile_after)
        for attr in ("list_pods", "create_pod", "bind_pod", "delete_pod"):
            recorder.wrap(setup.api, attr, f"k8s.api.{attr}")


def _ratio(numerator, denominator):
    """A share with its base; 0.0 when the base is empty (layer not used)."""
    return numerator / denominator if denominator else 0.0


def traced_run(workloads, name, seed) -> TracedRun:
    """Build, wrap, run once, unwrap; returns the spans and derived metrics."""
    setup_fn, run_fn = workloads.WORKLOADS[name]
    setup = setup_fn(seed)
    recorder = SpanRecorder()
    try:
        _install(recorder, setup)
        result = run_fn(setup, recorder=recorder)
    finally:
        recorder.remove()
    leftover = [
        attr
        for owner, attr, _ in STATIC_TARGETS
        if hasattr(getattr(owner, attr), "__wrapped__")
    ]
    if leftover:
        raise RuntimeError(f"timing wrappers left installed on {leftover}")
    metrics = _derive(recorder, result)
    counts = {
        metric: metrics[metric] for metric, _, kind in METRICS if kind == "count"
    }
    return TracedRun(result=result, recorder=recorder, counts=counts, metrics=metrics)


def _derive(recorder, result):
    layers = recorder.summarize()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "outer": 0}

    def layer(name):
        return layers.get(name, empty)

    def payloads(name):
        return [recorder.payload[sid] for sid in recorder.ids(name) if sid in recorder.payload]

    m = {}
    m["sim.intervals"] = len(result.intervals) if "sim" in layers else 0
    m["sim.self_s"] = layer("sim")["self_s"]
    m["sim.self_share"] = _ratio(layer("sim")["self_s"], layer("sim")["s"])
    for name in (
        "sim.runtime.view",
        "core.convergence.fit",
        "core.speed.fit",
        "fitting.fit_loss_curve",
        "fitting.fit_speed_model",
        "fitting.nnls",
        "cluster.snapshot",
        "schedulers.schedule",
        "core.allocation.allocate",
        "core.placement.place",
        "ps.paa_partition",
        "workloads.speed",
        "datastore.rebalance",
        "k8s.api.list_pods",
    ):
        m[f"{name}.calls"] = layer(name)["calls"]
        m[f"{name}.s"] = layer(name)["s"]

    fits = set(recorder.ids("core.convergence.fit"))
    fresh = {recorder.parent[sid] for sid in recorder.ids("fitting.fit_loss_curve")} & fits
    m["core.convergence.fit.fresh_share"] = _ratio(len(fresh), len(fits))
    # Each prediction of the remaining steps, scored as a prediction of the
    # job's total against the total it really needed (finished jobs only).
    errors = []
    for job_id, steps_done, predicted in payloads("sim.runtime.view"):
        total = result.truth.get(job_id)
        if total:
            errors.append(abs(steps_done + predicted - total) / total)
    m["core.convergence.remaining_mape"] = _ratio(sum(errors), len(errors))

    m["schedulers.schedule.self_s"] = layer("schedulers.schedule")["self_s"]
    # Placement-policy calls beyond the first of each scheduling round.
    schedules = set(recorder.ids("schedulers.schedule"))
    places = [recorder.parent[sid] for sid in recorder.ids("core.placement.place")]
    in_rounds = [parent for parent in places if parent in schedules]
    m["schedulers.place_retries"] = len(in_rounds) - len(set(in_rounds))
    m["core.allocation.tasks_granted"] = sum(payloads("core.allocation.allocate"))
    placed = payloads("core.placement.place")
    m["core.placement.requests"] = sum(p[0] for p in placed)
    m["core.placement.placed_share"] = _ratio(
        sum(p[1] for p in placed), m["core.placement.requests"]
    )
    m["core.placement.servers_per_job"] = _ratio(
        sum(p[2] for p in placed), sum(p[1] for p in placed)
    )
    partitions = payloads("ps.paa_partition")
    m["ps.paa_partition.distinct_share"] = _ratio(len(set(partitions)), len(partitions))

    m["deploy.step.calls"] = layer("deploy.step")["calls"]
    m["deploy.step.self_s"] = layer("deploy.step")["self_s"]
    m["deploy.step.self_share"] = _ratio(
        layer("deploy.step")["self_s"], layer("deploy.step")["s"]
    )
    m["deploy.cluster_from_api.s"] = layer("deploy.cluster_from_api")["s"]
    m["deploy.sweep_node_leases.s"] = layer("deploy.sweep_node_leases")["s"]
    m["k8s.reconcile.s"] = layer("k8s.reconcile")["s"]
    m["k8s.reconcile.self_s"] = layer("k8s.reconcile")["self_s"]
    reports = payloads("k8s.reconcile")
    attempted = sum(sum(r) for r in reports)
    m["k8s.rescales_attempted"] = attempted
    m["k8s.rescales_rolled_back"] = sum(r[1] for r in reports)
    m["k8s.rescale_applied_share"] = _ratio(sum(r[0] for r in reports), attempted)
    for attr in ("create_pod", "bind_pod", "delete_pod"):
        m[f"k8s.api.{attr}.calls"] = layer(f"k8s.api.{attr}")["calls"]
    m["k8s.api.bind_pod.failed"] = sum(
        1 for sid in recorder.ids("k8s.api.bind_pod") if sid in recorder.failed
    )
    m["k8s.kvstore.ops"] = layer("k8s.kvstore")["outer"]
    m["k8s.kvstore.s"] = layer("k8s.kvstore")["s"]
    # Span times are host seconds; report them at the reference speed, like
    # every other time (result.run_s already is).
    for name, unit, _ in METRICS:
        if unit == "s" and name in m:
            m[name] /= result.slowdown
    m["obs.traced_run_s"] = result.run_s
    m["obs.host_slowdown"] = result.slowdown
    return m


def layer_metrics(run: TracedRun, overhead_share):
    """The per-layer metrics in the benchmark's output format."""
    values = dict(run.metrics, **{"obs.trace_overhead_share": overhead_share})
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
