"""Tests for the §4.2 task-placement scheme and Theorem 1's consequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, Server, cpu_mem
from repro.cluster.resources import ResourceVector
from repro.common.errors import PlacementError
from repro.core.placement import (
    PlacementRequest,
    _greedy_layout,
    place_jobs,
    split_evenly,
    transfer_units,
)
from repro.obs import MetricsRegistry
from repro.obs.registry import NullRegistry, use_registry

DEMAND = cpu_mem(5, 10)


def req(job_id, workers, ps):
    return PlacementRequest(
        job_id=job_id,
        workers=workers,
        ps=ps,
        worker_demand=DEMAND,
        ps_demand=DEMAND,
    )


class TestSplitEvenly:
    def test_exact_division(self):
        assert split_evenly(6, 3) == [2, 2, 2]

    def test_remainder_goes_first(self):
        assert split_evenly(7, 3) == [3, 2, 2]

    def test_zero_count(self):
        assert split_evenly(0, 3) == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(PlacementError):
            split_evenly(3, 0)
        with pytest.raises(PlacementError):
            split_evenly(-1, 3)

    @given(count=st.integers(0, 1000), buckets=st.integers(1, 50))
    def test_properties(self, count, buckets):
        parts = split_evenly(count, buckets)
        assert sum(parts) == count
        assert max(parts) - min(parts) <= 1
        assert parts == sorted(parts, reverse=True)


class TestPlaceJobs:
    def test_small_job_packs_on_one_server(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 2, 1)])
        assert result.servers_used("j") == 1
        assert result.unplaced == ()

    def test_uses_fewest_servers(self, small_cluster):
        # 6 tasks at 5 CPU each need exactly 2 of the 16-CPU servers.
        result = place_jobs(small_cluster, [req("j", 4, 2)])
        assert result.servers_used("j") == 2

    def test_even_spread_across_servers(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 4, 2)])
        layout = result.layouts["j"]
        totals = [nw + np_ for nw, np_ in layout.values()]
        assert max(totals) - min(totals) <= 1

    def test_cluster_state_mutated(self, small_cluster):
        place_jobs(small_cluster, [req("j", 2, 2)])
        assert small_cluster.placed_task_count("j") == 4

    def test_layout_matches_allocation(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 5, 3)])
        layout = result.layouts["j"]
        assert sum(nw for nw, _ in layout.values()) == 5
        assert sum(np_ for _, np_ in layout.values()) == 3

    def test_smallest_job_first(self, small_cluster):
        """Anti-starvation: a small job must not be squeezed out by a big one."""
        big = req("big", 8, 8)  # 16 tasks: > 12-task capacity... can't fit
        small = req("small", 1, 1)
        result = place_jobs(small_cluster, [big, small])
        assert "small" in result.layouts

    def test_unplaceable_job_reported(self, small_cluster):
        result = place_jobs(small_cluster, [req("huge", 10, 10)])
        assert result.unplaced == ("huge",)
        assert small_cluster.placed_task_count() == 0

    def test_multiple_jobs_fill_cluster(self, small_cluster):
        requests = [req(f"j{i}", 2, 2) for i in range(3)]
        result = place_jobs(small_cluster, requests)
        assert len(result.layouts) == 3
        assert small_cluster.placed_task_count() == 12

    def test_order_preserved_when_sort_disabled(self, small_cluster):
        # With sorting off, the big job goes first and may crowd others out.
        big = req("big", 6, 6)  # 12 tasks fills 4 x 3-task servers exactly
        small = req("small", 1, 1)
        result = place_jobs(small_cluster, [big, small], sort_jobs=False)
        assert "big" in result.layouts
        assert result.unplaced == ("small",)

    def test_invalid_request(self):
        with pytest.raises(PlacementError):
            req("j", 0, 1)

    def test_prefers_available_servers(self, small_cluster):
        # Pre-load node-0 so it's the least available.
        small_cluster.place("node-0", ("other", "worker", 0), cpu_mem(12, 20))
        result = place_jobs(small_cluster, [req("j", 2, 1)])
        assert "node-0" not in result.layouts["j"]


class TestTheorem1:
    def test_fewer_servers_less_transfer(self):
        """Theorem 1 part 1: the fewest servers minimise transfer."""
        packed = {"s0": (2, 1), "s1": (2, 1)}
        spread = {"s0": (1, 1), "s1": (1, 1), "s2": (1, 0), "s3": (1, 0)}
        assert transfer_units(packed) < transfer_units(spread)

    def test_even_beats_uneven_on_same_servers(self):
        """Theorem 1 part 2: even per-server counts minimise the bottleneck."""
        even = {"s0": (2, 1), "s1": (2, 1)}
        uneven = {"s0": (3, 2), "s1": (1, 0)}
        assert transfer_units(even) <= transfer_units(uneven)

    def test_fig10_example(self):
        """The paper's Fig-10 worked example: (c) strictly beats (a) and (b).

        2 parameter servers + 4 workers on servers hosting 3 tasks each;
        per-pair data is 1 unit (model of 2 units over 2 ps). The paper
        computes transfer times 3, 3 and 2 for the three layouts.
        """
        a = {"s1": (1, 1), "s2": (1, 1), "s3": (2, 0)}
        b = {"s1": (2, 1), "s2": (1, 1), "s3": (1, 0)}
        c = {"s1": (2, 1), "s2": (2, 1)}
        # With unit model size and unit bandwidth the paper's counts are
        # 3, 3 and 2 transfer units respectively.
        assert transfer_units(a, model_units=2.0) == pytest.approx(3.0)
        assert transfer_units(b, model_units=2.0) == pytest.approx(3.0)
        assert transfer_units(c, model_units=2.0) == pytest.approx(2.0)

    def test_single_server_free(self):
        assert transfer_units({"s0": (4, 2)}) == 0.0

    def test_validation(self):
        with pytest.raises(PlacementError):
            transfer_units({"s0": (2, 0)})

    @settings(max_examples=40, deadline=None)
    @given(workers=st.integers(1, 12), ps=st.integers(1, 12), k=st.integers(1, 6))
    def test_even_split_is_optimal_among_k_server_layouts(self, workers, ps, k):
        """Perturbations of the even layout never beat it (Theorem 1).

        The theorem's hypothesis is an exactly-even deployment, i.e. k
        divides both task counts; remainder cases can be beaten by
        concentrating the leftover tasks.
        """
        if workers % k or ps % k:
            return
        even_w = split_evenly(workers, k)
        even_p = list(reversed(split_evenly(ps, k)))
        even = {
            f"s{i}": (even_w[i], even_p[i])
            for i in range(k)
            if even_w[i] or even_p[i]
        }
        base = transfer_units(even)
        # Move one worker from the first loaded server to the last. The
        # claim only covers layouts over the *same* server count (Theorem
        # 1 separately says fewer servers are better), so skip moves that
        # would empty a server.
        names = list(even)
        if len(names) >= 2 and even[names[0]][0] > 0:
            shifted = dict(even)
            w0, p0 = shifted[names[0]]
            w1, p1 = shifted[names[-1]]
            shifted[names[0]] = (w0 - 1, p0)
            shifted[names[-1]] = (w1 + 1, p1)
            if (w0 - 1, p0) == (0, 0):
                return
            assert transfer_units(shifted) >= base - 1e-9


class TestPlacementQuality:
    """place_jobs against brute force on tiny instances: the layout it
    picks must be transfer-optimal (or within a whisker) among all layouts
    using any number of servers."""

    def brute_force_best(self, workers, ps, num_servers, slots_per_server):

        best = None

        def layouts(count, servers):
            # All ways to distribute `count` identical tasks over servers.
            if servers == 1:
                yield (count,)
                return
            for first in range(count + 1):
                for rest in layouts(count - first, servers - 1):
                    yield (first,) + rest

        for w_split in layouts(workers, num_servers):
            for p_split in layouts(ps, num_servers):
                if any(
                    w + p > slots_per_server
                    for w, p in zip(w_split, p_split)
                ):
                    continue
                layout = {
                    f"s{i}": (w_split[i], p_split[i])
                    for i in range(num_servers)
                    if w_split[i] or p_split[i]
                }
                cost = transfer_units(layout)
                if best is None or cost < best:
                    best = cost
        return best

    @pytest.mark.parametrize("workers,ps", [(2, 1), (3, 2), (4, 2), (4, 4), (5, 3)])
    def test_within_optimal_transfer(self, workers, ps):
        num_servers, slots = 4, 3
        cluster = Cluster.homogeneous(num_servers, cpu_mem(15, 64))
        result = place_jobs(cluster, [req("j", workers, ps)])
        assert "j" in result.layouts
        chosen = transfer_units(result.layouts["j"])
        optimal = self.brute_force_best(workers, ps, num_servers, slots)
        assert chosen <= optimal + 1e-9 or chosen <= optimal * 1.25


def _reference_greedy_layout(request, servers):
    """The greedy spread written with ResourceVector arithmetic."""
    remaining = {s.name: s.available for s in servers}
    counts = {s.name: [0, 0] for s in servers}
    tasks = []
    for i in range(max(request.workers, request.ps)):
        if i < request.workers:
            tasks.append((0, request.worker_demand))
        if i < request.ps:
            tasks.append((1, request.ps_demand))
    for role_idx, demand in tasks:
        best = None
        best_room = -1.0
        for server in servers:
            room = remaining[server.name]
            if demand.fits_within(room):
                score = room.get("cpu") + sum(room.values()) * 1e-6
                if score > best_room:
                    best_room = score
                    best = server.name
        if best is None:
            return None
        remaining[best] = remaining[best] - demand
        counts[best][role_idx] += 1
    return {name: (c[0], c[1]) for name, c in counts.items() if c[0] or c[1]}


#: Amounts chosen so that ties are common (identical servers, equal
#: scores) and subtractions leave residues at or below 1e-9 (0.3 - 3 * 0.1,
#: 1 + 5e-10 - 1).
_CAPACITIES = (0.3, 1.0, 1.0 + 5e-10, 2.0, 4.0)
_DEMANDS = (0.1, 0.5, 1.0, 1.0 - 5e-10)


@st.composite
def _fleets(draw):
    types = ("cpu", "memory", "gpu")
    shapes = [
        ResourceVector(
            {
                t: draw(st.sampled_from(_CAPACITIES))
                for t in types
                if draw(st.booleans()) or t == "cpu"
            }
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    servers = [
        Server(f"s{i}", draw(st.sampled_from(shapes)))
        for i in range(draw(st.integers(1, 6)))
    ]
    for server in servers:  # some prior load, so availabilities differ
        if draw(st.booleans()):
            demand = server.capacity * draw(st.sampled_from([0.1, 0.5]))
            if not demand.is_zero():
                server.place(("other", "worker", 0), demand)

    def demand():
        chosen = draw(st.lists(st.sampled_from(types), min_size=1, unique=True))
        return ResourceVector({t: draw(st.sampled_from(_DEMANDS)) for t in chosen})

    request = PlacementRequest(
        job_id="j",
        workers=draw(st.integers(1, 8)),
        ps=draw(st.integers(1, 6)),
        worker_demand=demand(),
        ps_demand=demand(),
    )
    return request, servers


class TestGreedyLayoutEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(case=_fleets())
    def test_matches_resource_vector_reference(self, case):
        request, servers = case
        expected = _reference_greedy_layout(request, servers)
        got = _greedy_layout(request, servers)
        assert got == expected
        if got is not None:
            assert list(got.items()) == list(expected.items())

    def test_tie_goes_to_the_first_server(self):
        servers = [Server(f"s{i}", cpu_mem(2, 2)) for i in range(3)]
        request = PlacementRequest("j", 2, 1, cpu_mem(1, 1), cpu_mem(1, 1))
        assert _greedy_layout(request, servers) == {"s0": (1, 0), "s1": (0, 1), "s2": (1, 0)}
        assert _reference_greedy_layout(request, servers) == _greedy_layout(request, servers)

    def test_residue_below_tolerance_is_dropped(self):
        # s0 keeps 0.3 - 0.1 - 0.1 = 0.09999999999999998 after two tasks,
        # so the third task goes to s1 (0.1 scores higher) and the fourth
        # fits s0 only through the 1e-9 slack, leaving -2.8e-17, which is
        # dropped. A fifth task then fits nowhere.
        servers = [
            Server("s0", ResourceVector({"cpu": 0.3})),
            Server("s1", ResourceVector({"cpu": 0.1})),
        ]
        tenth = ResourceVector({"cpu": 0.1})
        request = PlacementRequest("j", 2, 2, tenth, tenth)
        assert _greedy_layout(request, servers) == {"s0": (1, 2), "s1": (1, 0)}
        assert _reference_greedy_layout(request, servers) == _greedy_layout(request, servers)
        too_many = PlacementRequest("j", 3, 2, tenth, tenth)
        assert _greedy_layout(too_many, servers) is None
        assert _reference_greedy_layout(too_many, servers) is None

    def test_dropped_residue_leaves_a_tie(self):
        # The worker leaves s1 a 5e-10 memory residue, which is dropped, so
        # the PS sees two equal rooms and goes to the first server. Kept,
        # the residue would raise s1's score by 5e-16 and win.
        servers = [
            Server("s0", ResourceVector({"cpu": 1.0})),
            Server("s1", ResourceVector({"cpu": 1.0, "memory": 1.0 + 5e-10})),
        ]
        request = PlacementRequest(
            "j", 1, 1, ResourceVector({"memory": 1.0}), ResourceVector({"cpu": 0.5})
        )
        assert _reference_greedy_layout(request, servers) == {"s0": (0, 1), "s1": (1, 0)}
        assert _greedy_layout(request, servers) == {"s0": (0, 1), "s1": (1, 0)}


def _counts(registry):
    counters = registry.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("placement.")}


def _seeded_rounds(seed):
    """Several placement rounds of random jobs on a random fleet."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        Server(f"n{i}", cpu_mem(float(rng.choice([4, 8, 16])), 64.0)) for i in range(12)
    )
    results = []
    for round_ in range(6):
        cluster.clear()
        requests = [
            PlacementRequest(
                f"r{round_}-{j}",
                int(rng.integers(1, 9)),
                int(rng.integers(1, 5)),
                cpu_mem(float(rng.choice([1, 2, 3])), 2.0),
                cpu_mem(float(rng.choice([1, 2])), 2.0),
            )
            for j in range(int(rng.integers(3, 10)))
        ]
        results.append(place_jobs(cluster, requests))
    return results


class TestWorkCounters:
    def test_counts_a_greedy_fallback(self):
        # 8 CPU of tasks on servers of 6 and 2 CPU: the even split puts
        # 4 CPU on the 2-CPU server, so the greedy spread places the job.
        cluster = Cluster(
            [Server("a", ResourceVector({"cpu": 6})), Server("b", ResourceVector({"cpu": 2}))]
        )
        request = PlacementRequest(
            "j", 2, 2, ResourceVector({"cpu": 2}), ResourceVector({"cpu": 2})
        )
        with use_registry(MetricsRegistry()) as registry:
            result = place_jobs(cluster, [request])
        assert result.layouts["j"] == {"a": (2, 1), "b": (0, 1)}
        counts = _counts(registry)
        assert counts["placement.layout_attempts"] == 1
        assert counts["placement.greedy_fallbacks"] == 1

    def test_seeded_runs_count_the_same(self):
        runs = []
        for _ in range(2):
            with use_registry(MetricsRegistry()) as registry:
                layouts = [r.layouts for r in _seeded_rounds(11)]
            runs.append((layouts, _counts(registry)))
        assert runs[0] == runs[1]
        counts = runs[0][1]
        assert counts["placement.layout_attempts"] >= counts["placement.greedy_fallbacks"] > 0

    def test_nothing_emitted_without_a_registry(self):
        class Forbidden(NullRegistry):
            def counter(self, name):
                raise AssertionError(f"counter {name} emitted")

            def histogram(self, name, bounds=None):
                raise AssertionError(f"histogram {name} emitted")

        with use_registry(Forbidden()):
            results = _seeded_rounds(11)
        assert any(r.layouts for r in results)
