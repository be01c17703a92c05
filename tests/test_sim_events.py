"""The heap-based incremental §4.1 allocator against a from-scratch reference.

``allocate`` carries candidate completion times in its heap entries and
evaluates speeds in vectorized batches. It must grant exactly what a
reference greedy -- same control flow, but recomputing
:func:`~repro.core.allocation._marginal_gain` fresh at every push -- would
grant.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from repro.cluster import cpu_mem
from repro.cluster.resources import ResourceVector
from repro.core.allocation import (
    AllocationRequest,
    TaskAllocation,
    _marginal_gain,
    allocate,
)


def reference_allocate(requests, capacity):
    """The pre-optimization greedy: same control flow as ``allocate`` but
    every push recomputes the full marginal gain from scratch through
    scalar ``_marginal_gain`` calls. Tie-breaking (heap counter order) is
    identical by construction, so results must match exactly."""
    used = {}
    cap = dict(capacity.items())

    def fits(demand):
        return all(
            used.get(name, 0.0) + value <= cap.get(name, 0.0) + 1e-9
            for name, value in demand.items()
        )

    def consume(demand):
        for name, value in demand.items():
            used[name] = used.get(name, 0.0) + value

    allocations = {}
    starved = []
    active = {}
    for request in requests:
        starter = request.worker_demand + request.ps_demand
        if fits(starter):
            consume(starter)
            allocations[request.job_id] = TaskAllocation(1, 1)
            active[request.job_id] = request
        else:
            starved.append(request.job_id)

    counter = itertools.count()
    versions = {job_id: 0 for job_id in active}
    heap = []

    def push(job_id):
        gain, kind = _marginal_gain(active[job_id], allocations[job_id], capacity)
        if gain > 0 and gain != float("inf"):
            heapq.heappush(
                heap, (-gain, next(counter), job_id, kind, versions[job_id])
            )

    for job_id in active:
        push(job_id)

    while heap:
        _, _, job_id, kind, version = heapq.heappop(heap)
        if versions[job_id] != version:
            continue
        request = active[job_id]
        alloc = allocations[job_id]
        demand = request.worker_demand if kind == "worker" else request.ps_demand
        if not fits(demand):
            other = request.ps_demand if kind == "worker" else request.worker_demand
            if kind == "worker" and alloc.ps < request.max_ps and fits(other):
                kind, demand = "ps", other
            elif kind == "ps" and alloc.workers < request.max_workers and fits(other):
                kind, demand = "worker", other
            else:
                continue
        consume(demand)
        if kind == "worker":
            alloc = TaskAllocation(alloc.workers + 1, alloc.ps)
        else:
            alloc = TaskAllocation(alloc.workers, alloc.ps + 1)
        allocations[job_id] = alloc
        versions[job_id] += 1
        push(job_id)

    return allocations, tuple(starved)


def random_fleet(rng, num_jobs):
    """Jobs with randomized Eqn-3-shaped speed functions and demands.

    Coefficients are continuous draws, so gain ties across distinct jobs
    have measure zero -- results cannot depend on how ties break."""
    requests = []
    for i in range(num_jobs):
        a = 0.5 + 4.0 * rng.random()
        b = 0.5 + 4.0 * rng.random()
        c = 0.05 * rng.random()
        d = 0.05 * rng.random()

        def speed(p, w, a=a, b=b, c=c, d=d):
            return w / (a + b * w / p + c * w + d * p)

        requests.append(
            AllocationRequest(
                job_id=f"job-{i}",
                remaining_work=1e4 * (1.0 + 9.0 * rng.random()),
                speed=speed,
                worker_demand=cpu_mem(
                    1 + rng.randrange(4), 2 + rng.randrange(8)
                ),
                ps_demand=cpu_mem(1 + rng.randrange(2), 1 + rng.randrange(4)),
                max_workers=2 + rng.randrange(12),
                max_ps=2 + rng.randrange(12),
            )
        )
    return requests


class TestIncrementalAllocatorEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_fleets(self, seed):
        rng = random.Random(seed)
        num_jobs = 3 + rng.randrange(12)
        requests = random_fleet(rng, num_jobs)
        # Capacity from ample to starving: tight capacity exercises the
        # fits-fallback and starter-starvation paths.
        scale = (4, 16, 60)[seed % 3]
        capacity = ResourceVector(
            {"cpu": float(scale * num_jobs), "memory": float(3 * scale * num_jobs)}
        )
        result = allocate(requests, capacity)
        ref_allocations, ref_starved = reference_allocate(requests, capacity)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved

    def test_matches_reference_with_vectorized_speed_model(self):
        """The batch path (``predict_many``) must agree with the scalar
        reference on a real fitted model, not just Python lambdas."""
        from repro.core.speed import SpeedEstimator

        estimator = SpeedEstimator(mode="async", global_batch=128.0)
        for p, w in [(1, 1), (1, 2), (2, 2), (2, 4), (3, 6), (4, 8), (4, 12)]:
            estimator.add_sample(p, w, w / (1.0 + 2.0 * w / p + 0.01 * w))
        fn = estimator.speed_function()
        requests = [
            AllocationRequest(
                job_id=f"fit-{i}",
                remaining_work=5e4 * (i + 1),
                speed=fn,
                worker_demand=cpu_mem(2, 4),
                ps_demand=cpu_mem(1, 2),
                max_workers=16,
                max_ps=16,
            )
            for i in range(5)
        ]
        capacity = ResourceVector({"cpu": 120.0, "memory": 260.0})
        result = allocate(requests, capacity)
        ref_allocations, ref_starved = reference_allocate(requests, capacity)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved

    def test_starvation_and_stop_reason_preserved(self):
        rng = random.Random(7)
        requests = random_fleet(rng, 10)
        tiny = ResourceVector({"cpu": 12.0, "memory": 30.0})
        result = allocate(requests, tiny)
        ref_allocations, ref_starved = reference_allocate(requests, tiny)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved
        assert len(ref_starved) > 0  # the scenario actually starves jobs
