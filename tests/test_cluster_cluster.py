"""Tests for cluster-level bookkeeping."""

import pytest

from repro.cluster import Cluster, Server, cpu_mem
from repro.cluster.resources import ZERO, ResourceVector
from repro.cluster.server import ROLE_PS, ROLE_WORKER
from repro.common.errors import ConfigurationError

DEMAND = cpu_mem(5, 10)


class TestConstruction:
    def test_homogeneous(self):
        cluster = Cluster.homogeneous(3, cpu_mem(16, 64))
        assert len(cluster) == 3
        assert cluster.total_capacity == cpu_mem(48, 192)

    def test_homogeneous_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            Cluster.homogeneous(0, cpu_mem(16, 64))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([Server("a", cpu_mem(1, 1)), Server("a", cpu_mem(1, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([])

    def test_testbed_shape(self):
        cluster = Cluster.testbed()
        assert len(cluster) == 13
        assert cluster.total_capacity["gpu"] == 12  # 6 GPU servers x 2 GPUs
        assert cluster.total_capacity["cpu"] == 7 * 16 + 6 * 8

    def test_unknown_server_lookup(self):
        cluster = Cluster.homogeneous(2, cpu_mem(4, 4))
        with pytest.raises(ConfigurationError):
            cluster.server("nope")


class TestAggregates:
    @pytest.fixture
    def cluster(self):
        return Cluster.homogeneous(3, cpu_mem(16, 64))

    def test_used_and_available(self, cluster):
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        assert cluster.total_used == DEMAND
        assert cluster.total_available == cluster.total_capacity - DEMAND

    def test_utilization(self, cluster):
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), cpu_mem(16, 10))
        assert cluster.utilization("cpu") == pytest.approx(16 / 48)

    def test_fits_in_total_ignores_fragmentation(self, cluster):
        # 17 CPUs fit in aggregate even though no single server has 17.
        assert cluster.fits_in_total(cpu_mem(17, 10))

    def test_dominant_resource(self, cluster):
        assert cluster.dominant_resource(cpu_mem(16, 10)) == "cpu"


class TestJobPlacementQueries:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster.homogeneous(3, cpu_mem(16, 64))
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        cluster.place("node-0", ("j1", ROLE_PS, 0), DEMAND)
        cluster.place("node-1", ("j1", ROLE_WORKER, 1), DEMAND)
        cluster.place("node-1", ("j2", ROLE_WORKER, 0), DEMAND)
        return cluster

    def test_job_placement_layout(self, cluster):
        layout = cluster.job_placement("j1")
        assert layout == {
            "node-0": {"worker": 1, "ps": 1},
            "node-1": {"worker": 1, "ps": 0},
        }

    def test_placed_task_count(self, cluster):
        assert cluster.placed_task_count() == 4
        assert cluster.placed_task_count("j1") == 3

    def test_release_job_across_servers(self, cluster):
        assert cluster.release_job("j1") == 3
        assert cluster.placed_task_count() == 1

    def test_clear(self, cluster):
        cluster.clear()
        assert cluster.placed_task_count() == 0
        assert cluster.total_used.is_zero()


class TestSnapshot:
    def test_snapshot_is_independent(self):
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        snap = cluster.snapshot()
        snap.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        assert cluster.placed_task_count() == 0
        assert snap.placed_task_count() == 1

    def test_snapshot_preserves_existing_placements(self):
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        cluster.place("node-1", ("j1", ROLE_PS, 0), DEMAND)
        snap = cluster.snapshot()
        assert snap.job_placement("j1") == {"node-1": {"worker": 0, "ps": 1}}


def _fresh_sum(cluster):
    total = ZERO
    for server in cluster:
        total = total + server.capacity
    return total


def _exact(vector):
    return list(vector.items())


class TestTotalCapacity:
    """``total_capacity`` is summed once at construction; it must equal a
    fresh left-to-right sum exactly, key order included."""

    def test_equals_fresh_sum(self):
        clusters = [
            Cluster.testbed(),
            Cluster.homogeneous(7, ResourceVector({"cpu": 16.1, "memory": 80.3, "gpu": 4})),
            Cluster(
                [
                    Server("a", ResourceVector({"memory": 0.1, "cpu": 0.7})),
                    Server("b", ResourceVector({"gpu": 2, "cpu": 0.2})),
                    Server("c", ResourceVector({"cpu": 0.1, "memory": 0.2})),
                ]
            ),
        ]
        for cluster in clusters:
            assert _exact(cluster.total_capacity) == _exact(_fresh_sum(cluster))

    def test_unchanged_by_placement_and_snapshot(self):
        cluster = Cluster.testbed()
        expected = _exact(_fresh_sum(cluster))
        cluster.place("gpu-0", ("j1", ROLE_WORKER, 0), DEMAND)
        snap = cluster.snapshot()
        snap.place("cpu-0", ("j2", ROLE_PS, 0), DEMAND)
        for c in (cluster, snap):
            assert _exact(c.total_capacity) == expected
            assert _exact(c.total_capacity) == _exact(_fresh_sum(c))

    def test_total_used_equals_fresh_sum(self):
        cluster = Cluster.homogeneous(4, cpu_mem(16, 64))
        demands = [cpu_mem(0.1, 0.3), ResourceVector({"memory": 0.7}), cpu_mem(0.2, 0.1)]
        for i, demand in enumerate(demands * 3):
            cluster.place(f"node-{i % 4}", ("j", ROLE_WORKER, i), demand)
        fresh = ZERO
        for server in cluster:
            fresh = fresh + server.used
        assert _exact(cluster.total_used) == _exact(fresh)

    def test_snapshot_copies_rank_state(self):
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        ranks = [s.availability_rank for s in cluster]
        snap = cluster.snapshot()
        snap.place("node-0", ("j", ROLE_WORKER, 0), DEMAND)
        assert [s.availability_rank for s in cluster] == ranks
        assert snap.server("node-0").availability_rank == (-11.0, -65.0, "node-0")
