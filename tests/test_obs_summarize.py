"""Tests for repro.obs.summarize: trace reports and timelines."""

import json

import pytest

from repro.obs import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_SPAN,
    JsonlTracer,
    RecordingTracer,
    read_trace_tolerant,
)
from repro.obs.summarize import (
    decision_timeline,
    event_type_counts,
    job_timelines,
    render_span_flame,
    span_flame,
    summarize_file,
    summarize_trace,
)


def emit_spans(tracer, now, first_id, root, children):
    """Emit one closed tree: *children* ``[(name, duration, grandchildren)]``."""
    next_id = first_id
    root_id = first_id + 1000

    def close(name, duration, parent_id, kids):
        nonlocal next_id
        span_id = next_id
        next_id += 1
        for kid in kids:
            close(*kid, span_id, [])
        tracer.emit(
            EVENT_SPAN, now, span_id=span_id, parent_id=parent_id,
            name=name, duration=duration,
        )

    for name, duration, kids in children:
        close(name, duration, root_id, kids)
    tracer.emit(
        EVENT_SPAN, now, span_id=root_id, parent_id=None,
        name=root[0], duration=root[1],
    )


def small_trace():
    tracer = RecordingTracer()
    tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="j1", model="vgg-16", mode="sync")
    tracer.emit(EVENT_ALLOCATION_DECIDED, 0.0, job_id="j1", workers=2, ps=1)
    emit_spans(
        tracer, 0.0, 1, ("interval", 1.0),
        [("fit", 0.2, []), ("schedule", 0.6, [])],
    )
    tracer.emit(
        EVENT_INTERVAL_TICK, 0.0, running_jobs=1, active_jobs=1, pending_jobs=0
    )
    tracer.emit(EVENT_JOB_COMPLETED, 600.0, job_id="j1", steps=50.0)
    emit_spans(
        tracer, 600.0, 10, ("interval", 0.5),
        [("fit", 0.2, []), ("schedule", 0.2, [])],
    )
    tracer.emit(
        EVENT_INTERVAL_TICK, 600.0, running_jobs=0, active_jobs=0, pending_jobs=0
    )
    return tracer.events


def deploy_two_step_trace():
    """Two loop steps: the second tears down what the first launched."""
    tracer = RecordingTracer()
    emit_spans(
        tracer, 0.0, 1, ("step", 1.0),
        [
            ("sweep", 0.1, []),
            ("snapshot", 0.1, []),
            ("schedule", 0.3, [("allocate", 0.1), ("place", 0.1)]),
            ("reconcile", 0.4, [("launch", 0.3)]),
        ],
    )
    emit_spans(
        tracer, 1.0, 20, ("step", 0.5),
        [
            ("sweep", 0.1, []),
            ("reconcile", 0.3, [("checkpoint", 0.1), ("teardown", 0.1)]),
        ],
    )
    return tracer.events


class TestPhaseBreakdown:
    """Per-path statistics of the phase tree, from span events."""

    def test_aggregates_ticks(self):
        flame = span_flame(small_trace())
        assert flame["interval/fit"]["count"] == 2
        assert flame["interval/fit"]["total"] == 0.4
        assert flame["interval/schedule"]["total"] == 0.8
        assert flame["interval"]["self"] == pytest.approx(1.5 - 1.2)
        assert flame["interval/fit"]["share"] == pytest.approx(0.4 / 1.5)
        shares = sum(stats["self_share"] for stats in flame.values())
        assert abs(shares - 1.0) < 1e-9

    def test_percentiles_over_interval_samples(self):
        flame = span_flame(small_trace())
        # schedule samples are [0.6, 0.2]: p50 interpolates the midpoint.
        assert abs(flame["interval/schedule"]["p50"] - 0.4) < 1e-9
        assert flame["interval/schedule"]["p99"] <= 0.6
        assert flame["interval/fit"]["p50"] == flame["interval/fit"]["p95"] == 0.2

    def test_empty_trace(self):
        assert span_flame([]) == {}
        assert render_span_flame([]) == []


class TestPhaseTree:
    def rows(self, events):
        """``(depth, name)`` per rendered phase line, header and
        unattributed lines skipped."""
        rows = []
        for line in render_span_flame(events):
            name = line.split()[0]
            if name in ("phase", "unattributed"):
                continue
            rows.append(((len(line) - len(line.lstrip())) // 2, name))
        return rows

    def test_children_render_under_their_own_parent(self):
        # Two depth-2 branches (schedule, reconcile): each child must
        # follow its own parent, not the last depth-1 row.
        assert self.rows(deploy_two_step_trace()) == [
            (0, "step"),
            (1, "sweep"),
            (1, "snapshot"),
            (1, "schedule"),
            (2, "allocate"),
            (2, "place"),
            (1, "reconcile"),
            (2, "launch"),
            (2, "checkpoint"),
            (2, "teardown"),
        ]

    def test_paths_are_preorder(self):
        paths = list(span_flame(deploy_two_step_trace()))
        for i, path in enumerate(paths):
            parent = path.rpartition("/")[0]
            if parent:
                assert parent in paths[:i]

    def test_unattributed_line_is_root_self_time(self):
        lines = render_span_flame(deploy_two_step_trace())
        assert lines[0].split()[0] == "phase"
        assert lines[1].startswith("step ")
        assert lines[-1].split()[0] == "unattributed"
        # step total 1.5 s, children 0.1+0.1+0.3+0.4 + 0.1+0.3 = 1.3 s.
        assert lines[-1].split()[1:] == ["200.0", "13.3"]


class TestTolerantReads:
    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "j1"}
        path.write_text(
            json.dumps(good)
            + "\n{not json at all\n"
            + '"a bare string"\n'
            + json.dumps({**good, "seq": 1})[: -10]  # truncated tail
            + "\n"
        )
        events, skipped = read_trace_tolerant(str(path))
        assert len(events) == 1
        assert skipped == 3

    def test_summarize_file_reports_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "j1"}
        path.write_text(json.dumps(good) + "\ngarbage\n")
        text = summarize_file(str(path))
        assert "skipped 1" in text
        assert "j1" in text

    def test_trace_cli_strict_fails_on_corrupt_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        good = {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "j1"}
        path.write_text(json.dumps(good) + "\ngarbage\n")
        assert main(["trace", str(path)]) == 0
        assert "skipped 1" in capsys.readouterr().out
        assert main(["trace", "--strict", str(path)]) == 1
        assert "line 2 is not valid JSON" in capsys.readouterr().err


class TestEventInventory:
    def test_unknown_events_bucketed(self):
        events = small_trace() + [
            {"seq": 99, "time": 0.0, "event": "from_the_future", "x": 1},
            {"seq": 100, "time": 0.0, "event": "from_the_future"},
        ]
        known, unknown = event_type_counts(events)
        assert known["job_arrived"] == 1
        assert unknown == {"from_the_future": 2}
        text = summarize_trace(events)
        assert "unknown event types: from_the_future=2" in text

    def test_no_unknown_section_when_clean(self):
        text = summarize_trace(small_trace())
        assert "unknown event types" not in text


class TestTimelines:
    def test_groups_events_by_job(self):
        timelines = job_timelines(small_trace())
        assert list(timelines) == ["j1"]
        assert [e["event"] for e in timelines["j1"]] == [
            "job_arrived",
            "allocation_decided",
            "job_completed",
        ]

    def test_decision_timeline_renders_lines(self):
        lines = decision_timeline(small_trace(), "j1")
        assert len(lines) == 3
        assert any("arrived" in line for line in lines)


class TestSummarize:
    def test_report_mentions_phases_and_jobs(self):
        text = summarize_trace(small_trace())
        assert "fit" in text
        assert "schedule" in text
        assert "j1" in text

    def test_long_timelines_truncate(self):
        tracer = RecordingTracer()
        tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="busy", model="m", mode="sync")
        for i in range(30):
            tracer.emit(
                EVENT_ALLOCATION_DECIDED, i * 600.0, job_id="busy",
                workers=1 + i % 3, ps=1,
            )
        text = summarize_trace(tracer.events, max_events_per_job=6)
        assert "more" in text

    def test_summarize_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            for event in small_trace():
                fields = {
                    k: v for k, v in event.items()
                    if k not in ("seq", "time", "event")
                }
                tracer.emit(event["event"], event["time"], **fields)
        text = summarize_file(path)
        assert "j1" in text
