"""Property-based invariants of the full simulation pipeline.

These use small, fast workloads so hypothesis can explore many random
configurations within a reasonable budget.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, cpu_mem
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import uniform_arrivals

FAST_MODELS = ["cnn-rand", "dssm", "kaggle-ndsb"]

SIM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(seed, scheduler, num_jobs=3, servers=4, **cfg):
    return run_with_decisions(seed, scheduler, num_jobs, servers, **cfg)[0]


def run_with_decisions(seed, scheduler, num_jobs=3, servers=4, **cfg):
    """Simulate and capture each interval's allocations as the scheduler
    returned them."""
    jobs = uniform_arrivals(
        num_jobs=num_jobs, window=900, seed=seed, models=FAST_MODELS
    )
    cluster = Cluster.homogeneous(servers, cpu_mem(16, 64))
    config = SimConfig(seed=seed, estimator_mode="oracle", **cfg)
    policy = make_scheduler(scheduler)
    schedule = policy.schedule
    decisions = []

    def recording_schedule(work_cluster, views):
        decision = schedule(work_cluster, views)
        decisions.append(dict(decision.allocations))
        return decision

    policy.schedule = recording_schedule
    return simulate(cluster, policy, jobs, config), decisions


class TestSimulationInvariants:
    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000), scheduler=st.sampled_from(
        ["optimus", "drf", "tetris", "fifo"]))
    def test_lifecycle_invariants(self, seed, scheduler):
        result = run(seed, scheduler)
        for record in result.jobs.values():
            if record.finished:
                assert record.completion_time > record.arrival_time
                assert record.jct > 0
            assert record.scaling_time >= 0
            assert record.num_scalings >= 0
        if result.all_finished:
            assert math.isfinite(result.makespan)
            last = max(r.completion_time for r in result.jobs.values())
            first = min(r.arrival_time for r in result.jobs.values())
            assert result.makespan == pytest.approx(last - first)

    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_decisions_respect_capacity_every_interval(self, seed):
        _, decisions = run_with_decisions(seed, "optimus", servers=3)
        assert decisions
        capacity_cpu = 3 * 16
        for decision in decisions:
            used = sum(alloc.total * 5 for alloc in decision.values())
            assert used <= capacity_cpu + 1e-9
            for alloc in decision.values():
                assert alloc.workers >= 1 and alloc.ps >= 1

    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_determinism(self, seed):
        a, decisions_a = run_with_decisions(seed, "optimus")
        b, decisions_b = run_with_decisions(seed, "optimus")
        assert a.average_jct == b.average_jct
        assert a.makespan == b.makespan
        assert decisions_a == decisions_b

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_timeline_utilisations_bounded(self, seed):
        result = run(seed, "drf")
        for slot in result.timeline:
            assert 0.0 <= slot.worker_utilization <= 1.0
            assert 0.0 <= slot.ps_utilization <= 1.0
            assert slot.running_tasks >= 2 * slot.running_jobs or slot.running_jobs == 0

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000), fraction=st.floats(0.0, 0.7))
    def test_background_load_never_speeds_things_up(self, seed, fraction):
        from repro.sim import constant_load

        free = run(seed, "optimus")
        loaded = run(seed, "optimus", background_load=constant_load(fraction))
        if free.all_finished and loaded.all_finished:
            # The greedy marginal-gain allocator is not capacity-monotone:
            # shrinking the cluster occasionally steers it to a *better*
            # allocation sequence (e.g. seed 1509 at fraction 0.375 improves
            # JCT by ~5%). Only dramatic speedups would indicate a bug.
            assert loaded.average_jct >= free.average_jct * 0.85

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_scaling_counts_match_decision_changes(self, seed):
        result, decisions = run_with_decisions(seed, "optimus")
        # Every recorded rescaling corresponds to an observable allocation
        # change in the decision trail (the converse does not hold exactly:
        # jobs pay a start cost on first launch too).
        changes = 0
        previous = {}
        for decision in decisions:
            for job_id, alloc in decision.items():
                if job_id in previous and previous[job_id] != alloc:
                    changes += 1
            previous = dict(decision)
        total_scalings = sum(r.num_scalings for r in result.jobs.values())
        assert total_scalings >= changes
