"""End-to-end observability: a traced 2-job simulation run.

Asserts the event stream a small oracle-mode run produces: the expected
event sequence per job, the per-interval ticks and their phase spans, the
metrics counters, and that attaching the sinks perturbs neither the
simulation nor the deploy control loop.
"""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.deploy.drill import DrillFleet, DrillNodes
from repro.deploy.loop import ControlLoop
from repro.k8s.api import APIServer
from repro.obs import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESCALED,
    EVENT_PLACEMENT_DECIDED,
    MetricsRegistry,
    RecordingTracer,
    span_tree,
)
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import uniform_arrivals


def run_traced(seed=3, num_jobs=2, **cfg):
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    jobs = uniform_arrivals(
        num_jobs=num_jobs, window=900, seed=seed, models=["cnn-rand", "dssm"]
    )
    cluster = Cluster.homogeneous(4, cpu_mem(16, 64))
    config = SimConfig(seed=seed, estimator_mode="oracle", **cfg)
    result = simulate(
        cluster, make_scheduler("optimus"), jobs, config,
        tracer=tracer, metrics=metrics,
    )
    return result, tracer, metrics


def record_schedule_calls(scheduler):
    """Wrap *scheduler*'s ``schedule`` on the instance; returns the list
    every decision it makes is appended to."""
    decisions = []
    schedule = scheduler.schedule

    def recording_schedule(cluster, views):
        decision = schedule(cluster, views)
        decisions.append(decision)
        return decision

    scheduler.schedule = recording_schedule
    return decisions


@pytest.fixture(scope="module")
def traced():
    return run_traced()


class TestTwoJobTrace:
    def test_every_job_arrives_then_completes(self, traced):
        result, tracer, _ = traced
        assert result.all_finished
        for job_id in result.jobs:
            events = [e["event"] for e in tracer.for_job(job_id)]
            assert events[0] == EVENT_JOB_ARRIVED
            assert events[-1] == EVENT_JOB_COMPLETED
            assert events.count(EVENT_JOB_ARRIVED) == 1
            assert events.count(EVENT_JOB_COMPLETED) == 1

    def test_allocation_precedes_placement_each_interval(self, traced):
        _, tracer, _ = traced
        allocations = tracer.of_type(EVENT_ALLOCATION_DECIDED)
        placements = tracer.of_type(EVENT_PLACEMENT_DECIDED)
        assert allocations and placements
        # For a given job at a given time, allocation_decided comes first.
        placed = {(e["time"], e["job_id"]): e["seq"] for e in placements}
        for event in allocations:
            key = (event["time"], event["job_id"])
            if key in placed:
                assert event["seq"] < placed[key]

    def test_allocation_events_carry_worker_ps_counts(self, traced):
        _, tracer, _ = traced
        for event in tracer.of_type(EVENT_ALLOCATION_DECIDED):
            assert event["workers"] >= 1
            assert event["ps"] >= 1
        for event in tracer.of_type(EVENT_PLACEMENT_DECIDED):
            assert event["servers"] >= 1
            assert isinstance(event["layout"], dict) and event["layout"]

    def test_rescale_events_match_job_records(self, traced):
        result, tracer, _ = traced
        for job_id, record in result.jobs.items():
            rescales = [
                e for e in tracer.for_job(job_id)
                if e["event"] == EVENT_JOB_RESCALED
            ]
            # num_scalings counts allocation changes *and* pause-resumes
            # (but not the first launch); the event fires only on changes.
            assert len(rescales) <= record.num_scalings
            for event in rescales:
                assert event["old"] != event["new"]
                assert event["overhead"] >= 0.0

    def test_interval_ticks_carry_phase_timings(self, traced):
        # A tick's phase timings are the span events stamped with its time:
        # one interval root whose children are the phases.
        _, tracer, _ = traced
        ticks = tracer.of_type(EVENT_INTERVAL_TICK)
        assert ticks
        roots = {r["time"]: r for r in span_tree(tracer.events)}
        assert len(roots) == len(ticks)
        for tick in ticks:
            assert tick["active_jobs"] >= 0
            assert "phases" not in tick
            root = roots[tick["time"]]
            assert root["name"] == "interval"
            children = [c["name"] for c in root["children"]]
            assert children == ["fit", "snapshot", "schedule", "progress"]
            assert root["duration"] >= sum(c["duration"] for c in root["children"])

    def test_seq_strictly_increasing_and_time_monotone(self, traced):
        _, tracer, _ = traced
        seqs = [e["seq"] for e in tracer.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [e["time"] for e in tracer.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_metrics_agree_with_trace(self, traced):
        result, tracer, metrics = traced
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["engine.jobs_admitted"] == len(result.jobs) == 2
        assert counters["engine.jobs_completed"] == 2
        assert counters["engine.intervals"] == len(
            tracer.of_type(EVENT_INTERVAL_TICK)
        )
        assert counters["allocation.rounds"] >= 1
        assert counters["placement.rounds"] >= 1
        # Phase histograms exist for the phases the engine timed.
        assert any(name.startswith("phase.") for name in snap["histograms"])

    def test_phase_timings_surface_in_result(self, traced):
        result, _, _ = traced
        assert result.phase_timings
        for stats in result.phase_timings.values():
            assert stats["count"] >= 1
            assert stats["total"] >= 0.0
            assert stats["max"] <= stats["total"] + 1e-12


class TestObservabilityIsInert:
    def test_tracing_does_not_change_results(self):
        def once(**sinks):
            scheduler = make_scheduler("optimus")
            decisions = record_schedule_calls(scheduler)
            result = simulate(
                Cluster.homogeneous(4, cpu_mem(16, 64)),
                scheduler,
                uniform_arrivals(
                    num_jobs=2, window=900, seed=3, models=["cnn-rand", "dssm"]
                ),
                SimConfig(seed=3, estimator_mode="oracle"),
                **sinks,
            )
            return result, decisions

        plain, plain_decisions = once()
        traced, traced_decisions = once(
            tracer=RecordingTracer(), metrics=MetricsRegistry()
        )
        assert plain.average_jct == traced.average_jct
        assert plain.makespan == traced.makespan
        assert plain_decisions and plain_decisions == traced_decisions
        assert {j: r.completion_time for j, r in plain.jobs.items()} == {
            j: r.completion_time for j, r in traced.jobs.items()
        }
        assert plain.phase_timings is None
        assert traced.phase_timings

    def test_tracing_does_not_change_deploy_decisions(self):
        def once(**sinks):
            api = APIServer()
            fleet = DrillFleet(seed=1, jobs=3, prefix="inert")
            # Node 2 goes silent after step 0, so a sweep cordons it and
            # its jobs are re-placed mid-drive.
            nodes = DrillNodes(api, servers=4, lease_ttl=2.0, silent=2)
            scheduler = make_scheduler("optimus")
            decisions = record_schedule_calls(scheduler)
            loop = ControlLoop(api, scheduler, **sinks)
            bound = []
            for _ in range(6):
                nodes.heartbeat(float(loop.step_index), loop.heartbeat)
                loop.step(fleet.views(), progress=dict(fleet.progress))
                fleet.advance()
                bound.append(sorted((pod.name, pod.node) for pod in api.list_pods()))
            return decisions, bound

        plain_decisions, plain_bound = once()
        tracer = RecordingTracer()
        traced_decisions, traced_bound = once(
            tracer=tracer, metrics=MetricsRegistry()
        )
        assert tracer.of_type(EVENT_PLACEMENT_DECIDED)
        assert len(plain_decisions) == len(traced_decisions) == 6
        for step, (plain, traced) in enumerate(
            zip(plain_decisions, traced_decisions)
        ):
            assert plain.scheduled_jobs, step
            assert plain == traced, step
            assert plain_bound[step] == traced_bound[step], step

    def test_default_run_emits_nothing(self):
        from repro.obs import NULL_REGISTRY
        from repro.obs.registry import active_registry

        jobs = uniform_arrivals(
            num_jobs=1, window=100, seed=1, models=["cnn-rand"]
        )
        result = simulate(
            Cluster.homogeneous(2, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            jobs,
            SimConfig(seed=1, estimator_mode="oracle"),
        )
        assert result.phase_timings is None
        assert active_registry() is NULL_REGISTRY
