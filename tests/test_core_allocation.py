"""Tests for the marginal-gain resource allocator (§4.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector, cpu_mem
from repro.common.errors import SchedulingError
from repro.core.allocation import (
    AllocationRequest,
    TaskAllocation,
    allocate,
    estimated_time,
)
from repro.obs import (
    DecisionLedger,
    MetricsRegistry,
    RecordingTracer,
    use_ledger,
    use_registry,
)
from repro.workloads import MODEL_ZOO, StepTimeModel

DEMAND = cpu_mem(5, 10)


def request(job_id, remaining, speed, priority=1.0, max_tasks=100):
    return AllocationRequest(
        job_id=job_id,
        remaining_work=remaining,
        speed=speed,
        worker_demand=DEMAND,
        ps_demand=DEMAND,
        priority=priority,
        max_workers=max_tasks,
        max_ps=max_tasks,
    )


def truth_speed(model="resnet-50", mode="sync"):
    truth = StepTimeModel(MODEL_ZOO[model], mode)
    return lambda p, w: truth.speed(p, w)


class TestStarterAllocations:
    def test_every_job_gets_one_plus_one(self):
        requests = [request(f"j{i}", 1000, truth_speed()) for i in range(3)]
        result = allocate(requests, cpu_mem(40, 80))
        for job_id in ("j0", "j1", "j2"):
            alloc = result.allocations[job_id]
            assert alloc.workers >= 1 and alloc.ps >= 1
        assert result.starved == ()

    def test_starvation_when_capacity_tiny(self):
        requests = [request(f"j{i}", 1000, truth_speed()) for i in range(3)]
        # Room for only two starter pairs.
        result = allocate(requests, cpu_mem(20, 40))
        assert len(result.starved) == 1
        assert result.starved == ("j2",)  # submission order preserved

    def test_starved_jobs_get_nothing(self):
        requests = [request("a", 1000, truth_speed()), request("b", 1000, truth_speed())]
        result = allocate(requests, cpu_mem(10, 20))
        assert "b" in result.starved
        assert "b" not in result.allocations


class TestCapacityRespect:
    def test_never_exceeds_capacity(self):
        capacity = cpu_mem(100, 200)
        requests = [request(f"j{i}", 10_000 * (i + 1), truth_speed()) for i in range(4)]
        result = allocate(requests, capacity)
        used = ResourceVector()
        for alloc in result.allocations.values():
            used = used + DEMAND * alloc.total
        assert used.fits_within(capacity)
        assert (result.leftover + used) == capacity

    def test_all_capacity_used_when_gains_positive(self):
        # A single huge job with near-linear async speedups should soak up
        # everything (capacity stop), modulo integrality.
        capacity = cpu_mem(100, 200)
        result = allocate(
            [request("big", 1e9, truth_speed("resnet-50", "async"))], capacity
        )
        assert result.allocations["big"].total == 20

    def test_task_caps_respected(self):
        result = allocate(
            [request("j", 1e9, truth_speed("resnet-50", "async"), max_tasks=3)],
            cpu_mem(1000, 2000),
        )
        alloc = result.allocations["j"]
        assert alloc.workers <= 3 and alloc.ps <= 3


class TestMarginalGainBehaviour:
    def test_bigger_jobs_get_more(self):
        capacity = cpu_mem(100, 200)
        requests = [
            request("small", 100, truth_speed()),
            request("large", 1_000_000, truth_speed()),
        ]
        result = allocate(requests, capacity)
        assert (
            result.allocations["large"].total > result.allocations["small"].total
        )

    def test_zero_work_job_gets_only_starter(self):
        capacity = cpu_mem(100, 200)
        requests = [
            request("done", 0, truth_speed()),
            request("busy", 1_000_000, truth_speed()),
        ]
        result = allocate(requests, capacity)
        assert result.allocations["done"] == TaskAllocation(1, 1)

    def test_stops_at_nonpositive_gains(self):
        # A speed function that *decreases* with any extra task: the greedy
        # loop must stop immediately after the starters.
        def declining(p, w):
            return 1.0 / (p + w)

        result = allocate([request("j", 1000, declining)], cpu_mem(1000, 2000))
        assert result.allocations["j"] == TaskAllocation(1, 1)
        assert result.stop_reason == "gains"

    def test_priority_factor_diverts_resources(self):
        capacity = cpu_mem(60, 120)  # 12 tasks
        young = request("young", 100_000, truth_speed(), priority=0.5)
        old = request("old", 100_000, truth_speed(), priority=1.0)
        result = allocate([young, old], capacity)
        assert result.allocations["old"].total >= result.allocations["young"].total

    def test_broken_speed_function_tolerated(self):
        def broken(p, w):
            raise RuntimeError("fit exploded")

        result = allocate(
            [request("bad", 1000, broken), request("ok", 1000, truth_speed())],
            cpu_mem(60, 120),
        )
        # The broken job keeps its starter; the healthy one grows.
        assert result.allocations["bad"] == TaskAllocation(1, 1)
        assert result.allocations["ok"].total > 2

    def test_chooses_worker_vs_ps_by_gain(self):
        # Speed that only improves with workers: no extra ps granted.
        def worker_hungry(p, w):
            return w * 1.0

        result = allocate([request("j", 1e6, worker_hungry)], cpu_mem(40, 80))
        alloc = result.allocations["j"]
        assert alloc.workers > alloc.ps


class TestValidation:
    def test_duplicate_ids_rejected(self):
        requests = [request("same", 10, truth_speed()), request("same", 10, truth_speed())]
        with pytest.raises(SchedulingError):
            allocate(requests, cpu_mem(100, 100))

    def test_bad_request_fields(self):
        with pytest.raises(SchedulingError):
            request("j", -1, truth_speed())
        with pytest.raises(SchedulingError):
            AllocationRequest(
                job_id="j",
                remaining_work=1,
                speed=truth_speed(),
                worker_demand=DEMAND,
                ps_demand=DEMAND,
                priority=0.0,
            )

    def test_empty_request_list(self):
        result = allocate([], cpu_mem(10, 10))
        assert result.allocations == {}


class TestEstimatedTime:
    def test_matches_q_over_f(self):
        req = request("j", 1000, truth_speed())
        alloc = TaskAllocation(4, 4)
        expected = 1000 / truth_speed()(4, 4)
        assert estimated_time(req, alloc) == pytest.approx(expected)

    def test_unallocated_is_infinite(self):
        req = request("j", 1000, truth_speed())
        assert estimated_time(req, TaskAllocation(0, 0)) == float("inf")


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        num_jobs=st.integers(1, 6),
        cpu=st.integers(10, 300),
        work=st.lists(st.floats(100, 1e6), min_size=6, max_size=6),
    )
    def test_invariants(self, num_jobs, cpu, work):
        capacity = cpu_mem(cpu, cpu * 2)
        speed = truth_speed("seq2seq", "sync")
        requests = [request(f"j{i}", work[i], speed) for i in range(num_jobs)]
        result = allocate(requests, capacity)
        used = ResourceVector()
        for job_id, alloc in result.allocations.items():
            assert alloc.workers >= 1 and alloc.ps >= 1
            used = used + DEMAND * alloc.total
        assert used.fits_within(capacity)
        assert set(result.starved) | set(result.allocations) == {
            f"j{i}" for i in range(num_jobs)
        }
        assert not (set(result.starved) & set(result.allocations))


class TestGreedyQuality:
    """The §4.1 greedy against brute force on small instances.

    The underlying program is NP-hard; the paper's claim is that the
    marginal-gain heuristic is "simple yet effective". On instances small
    enough to enumerate, the greedy's total completion time must be close
    to optimal.
    """

    def brute_force(self, requests, max_tasks):
        import itertools

        best = float("inf")
        options = [
            (w, p)
            for w in range(1, max_tasks + 1)
            for p in range(1, max_tasks + 1)
        ]
        for combo in itertools.product(options, repeat=len(requests)):
            if sum(w + p for w, p in combo) > max_tasks:
                continue
            total = 0.0
            for request, (w, p) in zip(requests, combo):
                total += estimated_time(request, TaskAllocation(w, p))
            best = min(best, total)
        return best

    def objective(self, requests, allocations):
        return sum(
            estimated_time(request, allocations[request.job_id])
            for request in requests
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_within_optimal_factor(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        models = ["resnet-50", "seq2seq", "cnn-rand", "inception-bn"]
        requests = []
        for i in range(2):
            model = models[int(rng.integers(len(models)))]
            mode = "sync" if rng.random() < 0.5 else "async"
            work = float(rng.uniform(1e3, 1e6))
            requests.append(
                request(f"j{i}", work, truth_speed(model, mode))
            )
        max_tasks = 8
        capacity = cpu_mem(5 * max_tasks, 10 * max_tasks)
        result = allocate(requests, capacity)
        greedy = self.objective(requests, result.allocations)
        optimal = self.brute_force(requests, max_tasks)
        assert greedy <= optimal * 1.35 + 1e-9


def allocate_with_ledger(requests, capacity):
    """Run one round under a full decision ledger; return it and its grants."""
    tracer = RecordingTracer()
    with use_ledger(DecisionLedger(tracer=tracer)):
        result = allocate(requests, capacity)
    grants = [e for e in tracer.of_type("decision") if e["kind"] == "grant"]
    return result, grants


class TestGrantTrace:
    def test_disabled_by_default(self):
        # No ledger installed: the round still counts its grants, but no
        # decision record is kept.
        metrics = MetricsRegistry()
        with use_registry(metrics):
            allocate([request("j", 1e6, truth_speed())], cpu_mem(40, 80))
        counters = metrics.snapshot()["counters"]
        assert counters["allocation.grants"] > 0
        assert not any(name.startswith("decision.") for name in counters)

    def test_trace_records_every_grant(self):
        result, grants = allocate_with_ledger(
            [request("j", 1e6, truth_speed())], cpu_mem(60, 120)
        )
        # Starter (1, 1) is not a grant; everything beyond it is.
        assert len(grants) == result.allocations["j"].total - 2
        for grant in grants:
            assert grant["job_id"] == "j"
            assert grant["task"] in ("worker", "ps")
            assert grant["gain"] > 0

    def test_allocation_after_is_cumulative(self):
        result, grants = allocate_with_ledger(
            [request("j", 1e6, truth_speed())], cpu_mem(60, 120)
        )
        totals = [g["workers"] + g["ps"] for g in grants]
        assert totals == sorted(totals)
        if totals:
            assert totals[-1] == result.allocations["j"].total

    def test_gains_reflect_greedy_order_across_jobs(self):
        requests = [
            request("small", 1_000, truth_speed()),
            request("large", 1_000_000, truth_speed()),
        ]
        _, grants = allocate_with_ledger(requests, cpu_mem(80, 160))
        # The very first grant goes to the job with the larger gain -- the
        # large job, whose absolute time reduction dominates.
        assert grants[0]["job_id"] == "large"
