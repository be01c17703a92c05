"""Tests for repro.obs.phases: nested phases, span events and phase trees."""

import pytest

from repro.common.errors import ControllerCrashed
from repro.deploy import ControlLoop
from repro.faults import ControllerCrash, CrashPointInjector
from repro.faults.crashpoints import CRASH_AFTER_TEARDOWN
from repro.k8s import APIServer
from repro.obs import (
    EVENT_SPAN,
    NULL_PHASES,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Phases,
    RecordingTracer,
    phases_for,
    span_tree,
)
from repro.obs.summarize import span_flame
from repro.cluster import Cluster, cpu_mem
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import make_job, uniform_arrivals

#: The one tree shape both drivers open (see ``repro.obs.phases``): every
#: path a traced run may produce.
SIM_PATHS = {
    "interval",
    "interval/fit",
    "interval/snapshot",
    "interval/schedule",
    "interval/schedule/allocate",
    "interval/schedule/place",
    "interval/progress",
    "interval/progress/rescale",
}
LOOP_PATHS = {
    "step",
    "step/sweep",
    "step/snapshot",
    "step/schedule",
    "step/schedule/allocate",
    "step/schedule/place",
    "step/reconcile",
    "step/reconcile/checkpoint",
    "step/reconcile/teardown",
    "step/reconcile/launch",
}


def span_events(tracer):
    return [e for e in tracer.events if e["event"] == EVENT_SPAN]


def phase_histograms(metrics):
    return {
        name[len("phase."):]
        for name in metrics.snapshot()["histograms"]
        if name.startswith("phase.")
    }


class TestSpanTracer:
    """Phases as a span tracer: ids, parents and span events."""

    def test_nesting_assigns_parent_ids(self):
        tracer = RecordingTracer()
        phases = Phases(tracer)
        phases.set_time(600.0)
        with phases.phase("outer"):
            with phases.phase("inner", detail=1):
                pass
            with phases.phase("sibling"):
                pass
        events = span_events(tracer)
        # Children close (and emit) before their parent.
        assert [e["name"] for e in events] == ["inner", "sibling", "outer"]
        outer = events[2]
        assert outer["parent_id"] is None
        assert all(e["parent_id"] == outer["span_id"] for e in events[:2])
        assert events[0]["detail"] == 1
        assert all(e["time"] == 600.0 for e in events)
        assert all(e["duration"] >= 0.0 for e in events)

    def test_span_ids_unique_and_monotonic(self):
        phases = Phases(RecordingTracer())
        ids = []
        for _ in range(5):
            with phases.phase("s") as phase:
                ids.append(phase.span_id)
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_exception_still_closes_span(self):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        phases = Phases(tracer, metrics)
        with pytest.raises(ValueError):
            with phases.phase("outer"):
                with phases.phase("doomed"):
                    raise ValueError("boom")
        events = span_events(tracer)
        assert [e["name"] for e in events] == ["doomed", "outer"]
        assert phases.current is None  # the stack did not corrupt
        # The failed phases still count in totals and histograms.
        assert set(phases.summary()) == {"outer", "outer/doomed"}
        assert metrics.histogram("phase.outer/doomed").count == 1

    def test_null_span_tracer_is_free_and_falsy(self):
        assert not NULL_PHASES
        # One shared no-op context for every call: nothing allocated.
        assert NULL_PHASES.phase("a") is NULL_PHASES.phase("b", attr=1)
        with NULL_PHASES.phase("anything", attr=1):
            pass
        assert NULL_PHASES.current is None
        assert phases_for(None, None) is NULL_PHASES
        assert phases_for(NULL_TRACER, NULL_REGISTRY) is NULL_PHASES

    def test_live_tracer_gets_live_spans(self):
        tracer = RecordingTracer()
        phases = phases_for(tracer, None)
        assert phases and isinstance(phases, Phases)
        # Metrics alone also time phases, without emitting span events.
        registry = MetricsRegistry()
        metrics_only = phases_for(NULL_TRACER, registry)
        assert metrics_only
        with metrics_only.phase("fit"):
            pass
        assert registry.histogram("phase.fit").count == 1
        assert not tracer.events


class TestPhases:
    def test_paths_join_names_from_the_root(self):
        phases = Phases(RecordingTracer())
        with phases.phase("interval") as root:
            with phases.phase("schedule"):
                with phases.phase("allocate") as leaf:
                    pass
        assert root.path == "interval"
        assert leaf.path == "interval/schedule/allocate"
        assert list(phases.summary()) == [
            "interval",
            "interval/schedule",
            "interval/schedule/allocate",
        ]


class TestSpanTreeReconstruction:
    def test_tree_rebuilt_from_events(self):
        tracer = RecordingTracer()
        phases = Phases(tracer)
        with phases.phase("interval"):
            with phases.phase("fit"):
                pass
            with phases.phase("progress"):
                with phases.phase("rescale"):
                    pass
        roots = span_tree(tracer.events)
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "interval"
        assert [c["name"] for c in root["children"]] == ["fit", "progress"]
        assert root["children"][1]["children"][0]["name"] == "rescale"

    def test_orphan_spans_promoted_to_roots(self):
        tracer = RecordingTracer()
        phases = Phases(tracer)
        with phases.phase("outer"):
            with phases.phase("inner"):
                pass
        # Simulate a trace cut before "outer" closed.
        cut = [e for e in tracer.events if e["name"] != "outer"]
        roots = span_tree(cut)
        assert [r["name"] for r in roots] == ["inner"]


class TestEngineSpans:
    def run_traced(self, metrics=None):
        tracer = RecordingTracer()
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=4, window=1200, seed=1),
            SimConfig(seed=3, estimator_mode="oracle"),
            tracer=tracer,
            metrics=metrics,
        )
        return tracer, result

    def test_engine_emits_phase_chain(self):
        tracer, _ = self.run_traced()
        names = {e["name"] for e in span_events(tracer)}
        assert {"interval", "fit", "allocate", "place", "progress"} <= names
        roots = span_tree(tracer.events)
        assert roots and all(r["name"] == "interval" for r in roots)
        for root in roots:
            children = {c["name"]: c for c in root["children"]}
            assert ["fit", "snapshot", "schedule", "progress"] == list(children)
            # allocate and place sit under schedule, not under interval.
            schedule = [c["name"] for c in children["schedule"]["children"]]
            assert schedule == ["allocate", "place"]

    def test_one_tree_feeds_spans_totals_and_histograms(self):
        metrics = MetricsRegistry()
        tracer, result = self.run_traced(metrics=metrics)
        flame = span_flame(tracer.events)
        assert set(flame) == set(result.phase_timings)
        assert set(flame) == phase_histograms(metrics)
        assert SIM_PATHS - {"interval/progress/rescale"} <= set(flame)
        assert set(flame) <= SIM_PATHS
        shares = sum(stats["self_share"] for stats in flame.values())
        assert shares == pytest.approx(1.0, abs=1e-9)
        for path, stats in result.phase_timings.items():
            assert stats["count"] == flame[path]["count"]

    def test_parent_child_integrity_whole_run(self):
        tracer, _ = self.run_traced()
        events = span_events(tracer)
        ids = {e["span_id"] for e in events}
        assert len(ids) == len(events)  # no id reuse
        for event in events:
            assert event["parent_id"] is None or event["parent_id"] in ids

    def test_flame_paths_aggregate(self):
        tracer, _ = self.run_traced()
        flame = span_flame(tracer.events)
        assert "interval" in flame
        assert "interval/fit" in flame
        assert flame["interval"]["count"] == flame["interval/fit"]["count"]

    def test_untraced_run_emits_no_spans(self):
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=4, window=1200, seed=1),
            SimConfig(seed=3, estimator_mode="oracle"),
        )
        assert result.all_finished


def _loop_views(progress):
    spec = make_job("resnet-50", mode="sync", job_id="job-a")
    return [
        JobView(
            spec=spec,
            remaining_steps=max(10_000.0 - progress.get("job-a", 0.0), 100.0),
            speed=lambda p, w: float(w),
            observation_count=50,
        )
    ]


class TestDeployLoopSpans:
    def make_api(self, nodes=3):
        api = APIServer()
        for i in range(nodes):
            api.register_node(f"n{i}", cpu_mem(16, 64))
        return api

    def test_step_emits_root_and_phase_spans(self):
        tracer = RecordingTracer()
        loop = ControlLoop(self.make_api(), make_scheduler("optimus"), tracer=tracer)
        loop.step(_loop_views({}), progress={"job-a": 0.0})
        events = span_events(tracer)
        names = [e["name"] for e in events]
        assert "step" in names
        for phase in ("sweep", "snapshot", "schedule", "reconcile"):
            assert phase in names
        roots = span_tree(tracer.events)
        assert [r["name"] for r in roots] == ["step"]
        # The first step launches job-a: per-job controller spans nest
        # under reconcile.
        reconcile = next(
            c for c in roots[0]["children"] if c["name"] == "reconcile"
        )
        assert "launch" in [c["name"] for c in reconcile["children"]]

    def test_crash_point_mid_reconcile_closes_open_spans(self):
        tracer = RecordingTracer()
        injector = CrashPointInjector([ControllerCrash(CRASH_AFTER_TEARDOWN)])
        loop = ControlLoop(
            self.make_api(),
            make_scheduler("optimus"),
            tracer=tracer,
            crash_points=injector,
        )
        loop.step(_loop_views({}), progress={"job-a": 0.0})
        before = len(span_events(tracer))
        # Dropping the job from the views forces a teardown of the
        # now-absent job, whose crash point fires mid-reconcile.
        with pytest.raises(ControllerCrashed):
            loop.step([], progress={"job-a": 1000.0})
        events = span_events(tracer)
        assert len(events) > before
        # Every span opened before the crash was closed and emitted --
        # including the reconcile/step ancestors of the crashing teardown.
        last_step_spans = [e["name"] for e in events]
        assert "teardown" in last_step_spans or "checkpoint" in last_step_spans
        assert last_step_spans.count("step") >= 2
        # The tracer's stack fully unwound: a new loop can span again.
        assert loop.phases.current is None

    def test_two_step_tree_matches_shape(self):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        loop = ControlLoop(
            self.make_api(), make_scheduler("optimus"),
            tracer=tracer, metrics=metrics,
        )
        loop.step(_loop_views({}), progress={"job-a": 0.0})
        # The second step drops job-a: checkpoint and teardown under
        # reconcile, next to the first step's launch.
        loop.step([], progress={"job-a": 1000.0})
        flame = span_flame(tracer.events)
        assert set(flame) == LOOP_PATHS
        assert set(flame) == set(loop.phases.summary())
        assert set(flame) == phase_histograms(metrics)
        shares = sum(stats["self_share"] for stats in flame.values())
        assert shares == pytest.approx(1.0, abs=1e-9)
