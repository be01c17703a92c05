"""The API server's decode-once read path.

``APIServer`` remembers the decoded object for each store key and decodes
a payload again only when it changed. These tests pin what that must not
change: callers own what they get back, writes from anywhere are visible
on the next read, the filtered listings equal a decode-everything
reference, and every public method issues exactly the store calls it
issued before the read path remembered anything.
"""

import hashlib
import os
import random

import pytest

from repro.cluster import cpu_mem
from repro.common.errors import KVStoreError
from repro.common.rand import RandomSource
from repro.common.retry import RetryPolicy
from repro.core.allocation import TaskAllocation
from repro.deploy import ControlLoop
from repro.faults import FlakyKVStore, RetryingKVStore
from repro.k8s import APIServer, NodeInfo, PodSpec
from repro.k8s.api import NODE_PREFIX, POD_PREFIX
from repro.k8s.kvstore import KVStore
from repro.schedulers import JobView, make_scheduler
from repro.workloads import StepTimeModel, make_job

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def worker(job_id, index=0, demand=cpu_mem(2, 4), role="worker"):
    return PodSpec(
        name=f"{job_id}/{role}-{index}", job_id=job_id, role=role,
        index=index, demand=demand,
    )


@pytest.fixture
def api():
    server = APIServer()
    server.register_node("n0", cpu_mem(16, 64))
    server.register_node("n1", cpu_mem(16, 64))
    for pod in (worker("a"), worker("a", 1), worker("b")):
        server.create_pod(pod)
    server.bind_pod("a/worker-0", "n0")
    server.bind_pod("b/worker-0", "n1")
    return server


class TestCallersOwnWhatTheyRead:
    def test_mutating_a_listed_pod_does_not_change_the_next_read(self, api):
        first = api.list_pods(job_id="a")
        for pod in first:
            pod.phase, pod.node, pod.restarts = "Failed", "elsewhere", 9
        again = api.list_pods(job_id="a")
        assert [(p.phase, p.node, p.restarts) for p in again] == [
            ("Running", "n0", 0),
            ("Pending", None, 0),
        ]
        assert again[0] is not first[0]

    def test_mutating_a_read_pod_does_not_change_the_next_read(self, api):
        pod = api.pod("a/worker-1")
        pod.node = "n1"
        assert api.pod("a/worker-1").node is None
        assert api.list_pods(node="n1") == [api.pod("b/worker-0")]

    def test_mutating_a_node_does_not_change_the_next_read(self, api):
        node = api.node("n0")
        node.cordoned = True
        node.allocated = cpu_mem(16, 64)
        fresh = api.node("n0")
        assert not fresh.cordoned
        assert fresh.allocated == cpu_mem(2, 4)
        listed = api.list_nodes()
        listed[0].cordoned = True
        assert not api.list_nodes()[0].cordoned
        assert api.list_nodes(include_cordoned=False)[0].name == "n0"


class TestOutsideWritesAreVisible:
    def test_second_api_server_on_the_same_store(self, api):
        api.list_pods()
        api.node("n1")
        other = APIServer(api.store)
        other.bind_pod("a/worker-1", "n1")
        other.cordon_node("n0")
        assert api.pod("a/worker-1").node == "n1"
        assert [p.name for p in api.list_pods(node="n1")] == [
            "a/worker-1",
            "b/worker-0",
        ]
        assert api.node("n0").cordoned
        assert api.list_pods(job_id="a")[0].phase == "Failed"
        assert api.node("n1").allocated == cpu_mem(4, 8)

    def test_lease_expiry_deletes_keys(self):
        api = APIServer()
        api.register_node("n0", cpu_mem(16, 64))
        lease = api.store.grant_lease(1.0, now=0.0)
        pod = worker("leased")
        api.store.put(POD_PREFIX + pod.name, pod.to_json(), lease=lease)
        assert [p.name for p in api.list_pods()] == ["leased/worker-0"]
        assert api.pod("leased/worker-0") == pod
        api.store.expire_leases(1.0)
        assert api.list_pods() == []
        with pytest.raises(KVStoreError):
            api.pod("leased/worker-0")

    def test_raw_put_of_a_changed_payload(self, api):
        api.list_pods()
        api.list_nodes()
        changed = api.pod("a/worker-1")
        changed.restarts = 4
        api.store.put(POD_PREFIX + changed.name, changed.to_json())
        node = api.node("n1")
        node.cordoned = True
        api.store.put(NODE_PREFIX + "n1", node.to_json())
        assert api.pod("a/worker-1").restarts == 4
        assert api.list_pods(job_id="a")[1].restarts == 4
        assert api.node("n1").cordoned
        assert [n.name for n in api.list_nodes(include_cordoned=False)] == ["n0"]

    def test_raw_delete_and_recreate_under_the_same_key(self, api):
        api.list_pods()
        api.store.delete(POD_PREFIX + "a/worker-1")
        assert [p.name for p in api.list_pods(job_id="a")] == ["a/worker-0"]
        api.store.put(
            POD_PREFIX + "a/worker-1", worker("a", 1, demand=cpu_mem(3, 3)).to_json()
        )
        assert api.pod("a/worker-1").demand == cpu_mem(3, 3)


class TestMemoryStaysBounded:
    def test_only_live_keys_are_remembered(self, api):
        other = APIServer(api.store)
        for index in range(20):
            other.create_pod(worker("churn", index))
            api.pod(f"churn/worker-{index}")
        for index in range(20):
            other.delete_pod(f"churn/worker-{index}")
        api.delete_pod("a/worker-1")
        other.remove_node("n1")
        api.list_pods()
        api.list_nodes()
        assert sorted(api._pods) == [POD_PREFIX + "a/worker-0", POD_PREFIX + "b/worker-0"]
        assert sorted(api._nodes) == [NODE_PREFIX + "n0"]


def reference_pods(store, job_id=None, node=None):
    """Decode every pod payload from scratch and filter."""
    pods = [PodSpec.from_json(v) for v in store.list_prefix(POD_PREFIX).values()]
    return [
        p for p in pods
        if (job_id is None or p.job_id == job_id) and (node is None or p.node == node)
    ]


def reference_nodes(store):
    return [NodeInfo.from_json(v) for v in store.list_prefix(NODE_PREFIX).values()]


class TestRandomSequencesMatchDecodeEverything:
    JOBS = ("a", "b", "c")
    NODES = ("n0", "n1", "n2")

    @pytest.mark.parametrize("run", range(4))
    def test_listings_equal_reference(self, run):
        rng = random.Random(CHAOS_SEED * 101 + run)
        store = KVStore()
        api = APIServer(store)
        other = APIServer(store)  # a second writer the cache never sees
        for name in self.NODES:
            api.register_node(name, cpu_mem(8, 32))
        for _ in range(150):
            writer = api if rng.random() < 0.7 else other
            op = rng.choice(
                ("create", "create", "bind", "bind", "delete", "cordon",
                 "uncordon", "restart", "raw")
            )
            job = rng.choice(self.JOBS)
            name = f"{job}/worker-{rng.randrange(4)}"
            node = rng.choice(self.NODES)
            try:
                if op == "create":
                    writer.create_pod(worker(job, int(name[-1]), cpu_mem(1, 2)))
                elif op == "bind":
                    writer.bind_pod(name, node)
                elif op == "delete":
                    writer.delete_pod(name)
                elif op == "cordon":
                    writer.cordon_node(node)
                elif op == "uncordon":
                    writer.uncordon_node(node)
                elif op == "restart":
                    writer.restart_pod(name)
                elif store.get(POD_PREFIX + name) is not None:
                    pod = PodSpec.from_json(store.get(POD_PREFIX + name))
                    pod.restarts += 10
                    store.put(POD_PREFIX + name, pod.to_json())
            except KVStoreError:
                pass
            for job_id in (None,) + self.JOBS:
                for node_name in (None,) + self.NODES:
                    assert api.list_pods(job_id=job_id, node=node_name) == (
                        reference_pods(store, job_id, node_name)
                    )
            assert api.list_nodes() == reference_nodes(store)
            for ref in reference_nodes(store):
                assert api.node(ref.name) == ref
            for ref in reference_pods(store):
                assert api.pod(ref.name) == ref


class RecordingStore:
    """A pass-through KVStore front that logs every call made through it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def recorded(*args, **kwargs):
            self.calls.append((name,) + args + tuple(sorted(kwargs.items())))
            return attr(*args, **kwargs)

        return recorded

    def __contains__(self, key):
        self.calls.append(("__contains__", key))
        return key in self.inner

    def __len__(self):
        self.calls.append(("__len__",))
        return len(self.inner)


def _scenario():
    """(label, action) pairs run in order on one API server."""
    big = worker("big", demand=cpu_mem(40, 4))
    return [
        ("register n0 leased", lambda a: a.register_node(
            "n0", cpu_mem(16, 64), lease_ttl=2.0, now=0.0)),
        ("register n1", lambda a: a.register_node("n1", cpu_mem(16, 64))),
        ("register n2 leased", lambda a: a.register_node(
            "n2", cpu_mem(16, 64), lease_ttl=2.0, now=0.0)),
        ("re-register n1", lambda a: a.register_node("n1", cpu_mem(16, 64))),
        ("re-register n1 conflict", lambda a: a.register_node("n1", cpu_mem(8, 8))),
        ("create a0", lambda a: a.create_pod(worker("a"))),
        ("create a-ps0", lambda a: a.create_pod(worker("a", role="ps"))),
        ("create b0", lambda a: a.create_pod(worker("b"))),
        ("create big", lambda a: a.create_pod(big)),
        ("create a0 again", lambda a: a.create_pod(worker("a"))),
        ("bind a0", lambda a: a.bind_pod("a/worker-0", "n0")),
        ("bind a-ps0", lambda a: a.bind_pod("a/ps-0", "n1")),
        ("bind b0", lambda a: a.bind_pod("b/worker-0", "n2")),
        ("bind big", lambda a: a.bind_pod("big/worker-0", "n1")),
        ("bind a0 again", lambda a: a.bind_pod("a/worker-0", "n1")),
        ("list pods", lambda a: a.list_pods()),
        ("list pods again", lambda a: a.list_pods()),
        ("list pods job a", lambda a: a.list_pods(job_id="a")),
        ("list pods node n0", lambda a: a.list_pods(node="n0")),
        ("list pods a on n1", lambda a: a.list_pods(job_id="a", node="n1")),
        ("pod a0", lambda a: a.pod("a/worker-0")),
        ("pod a0 again", lambda a: a.pod("a/worker-0")),
        ("pod missing", lambda a: a.pod("nope/worker-0")),
        ("node n0", lambda a: a.node("n0")),
        ("node missing", lambda a: a.node("nope")),
        ("list nodes", lambda a: a.list_nodes()),
        ("list live nodes", lambda a: a.list_nodes(include_cordoned=False)),
        ("restart a0", lambda a: a.restart_pod("a/worker-0")),
        ("restart big", lambda a: a.restart_pod("big/worker-0")),
        ("heartbeat n0", lambda a: a.heartbeat_node("n0", 1.0)),
        ("heartbeat n2 lapsed", lambda a: a.heartbeat_node("n2", 2.5)),
        ("heartbeat n1 unleased", lambda a: a.heartbeat_node("n1", 2.5)),
        ("sweep 3.5", lambda a: a.sweep_expired(3.5)),
        ("heartbeat n0 cordoned", lambda a: a.heartbeat_node("n0", 3.5)),
        ("cordon n0 again", lambda a: a.cordon_node("n0")),
        ("cordon n1", lambda a: a.cordon_node("n1")),
        ("uncordon n1", lambda a: a.uncordon_node("n1")),
        ("uncordon n1 again", lambda a: a.uncordon_node("n1")),
        ("cluster allocated", lambda a: a.cluster_allocated()),
        ("pods per job", lambda a: a.pods_per_job()),
        ("delete a0", lambda a: a.delete_pod("a/worker-0")),
        ("delete big", lambda a: a.delete_pod("big/worker-0")),
        ("delete missing", lambda a: a.delete_pod("nope/worker-0")),
        ("sweep 5.0", lambda a: a.sweep_expired(5.0)),
        ("remove n2", lambda a: a.remove_node("n2")),
        ("delete b0 dangling", lambda a: a.delete_pod("b/worker-0")),
        ("remove n2 again", lambda a: a.remove_node("n2")),
        ("re-register n0 leased", lambda a: a.register_node(
            "n0", cpu_mem(16, 64), lease_ttl=2.0, now=6.0)),
        ("heartbeat n0 renew", lambda a: a.heartbeat_node("n0", 7.0)),
        ("remove n1", lambda a: a.remove_node("n1")),
        ("list pods end", lambda a: a.list_pods()),
        ("list nodes end", lambda a: a.list_nodes()),
    ]


def record_scenario():
    """Run the scenario; per step, the store calls made and the outcome."""
    store = RecordingStore(KVStore())
    api = APIServer(store)
    steps = []
    for label, action in _scenario():
        store.calls = []
        try:
            action(api)
            outcome = "ok"
        except KVStoreError:
            outcome = "raised"
        steps.append((label, outcome, store.calls))
    return steps


def summarise(steps):
    """Readable per-step call list (op and first argument) plus one digest
    over every argument of every call, payloads included."""
    readable = {
        label: (outcome, [" ".join(map(str, call[:2])) for call in calls])
        for label, outcome, calls in steps
    }
    digest = hashlib.sha256(repr(steps).encode()).hexdigest()[:16]
    return readable, digest


#: Store calls per public method, recorded before the read path remembered
#: decoded objects. Arguments beyond the first are covered by the digest.
EXPECTED_CALLS = {
    "register n0 leased": ("ok", [
        "get /nodes/n0",
        "grant_lease 2.0",
        "put /heartbeats/n0",
        "put /nodes/n0",
    ]),
    "register n1": ("ok", ["get /nodes/n1", "put /nodes/n1"]),
    "register n2 leased": ("ok", [
        "get /nodes/n2",
        "grant_lease 2.0",
        "put /heartbeats/n2",
        "put /nodes/n2",
    ]),
    "re-register n1": ("ok", ["get /nodes/n1"]),
    "re-register n1 conflict": ("raised", ["get /nodes/n1"]),
    "create a0": ("ok", ["__contains__ /pods/a/worker-0", "put /pods/a/worker-0"]),
    "create a-ps0": ("ok", ["__contains__ /pods/a/ps-0", "put /pods/a/ps-0"]),
    "create b0": ("ok", ["__contains__ /pods/b/worker-0", "put /pods/b/worker-0"]),
    "create big": ("ok", ["__contains__ /pods/big/worker-0", "put /pods/big/worker-0"]),
    "create a0 again": ("raised", ["__contains__ /pods/a/worker-0"]),
    "bind a0": ("ok", [
        "get /pods/a/worker-0",
        "get /nodes/n0",
        "put /nodes/n0",
        "put /pods/a/worker-0",
    ]),
    "bind a-ps0": ("ok", [
        "get /pods/a/ps-0",
        "get /nodes/n1",
        "put /nodes/n1",
        "put /pods/a/ps-0",
    ]),
    "bind b0": ("ok", [
        "get /pods/b/worker-0",
        "get /nodes/n2",
        "put /nodes/n2",
        "put /pods/b/worker-0",
    ]),
    "bind big": ("raised", ["get /pods/big/worker-0", "get /nodes/n1"]),
    "bind a0 again": ("raised", ["get /pods/a/worker-0"]),
    "list pods": ("ok", ["list_prefix /pods/"]),
    "list pods again": ("ok", ["list_prefix /pods/"]),
    "list pods job a": ("ok", ["list_prefix /pods/"]),
    "list pods node n0": ("ok", ["list_prefix /pods/"]),
    "list pods a on n1": ("ok", ["list_prefix /pods/"]),
    "pod a0": ("ok", ["get /pods/a/worker-0"]),
    "pod a0 again": ("ok", ["get /pods/a/worker-0"]),
    "pod missing": ("raised", ["get /pods/nope/worker-0"]),
    "node n0": ("ok", ["get /nodes/n0"]),
    "node missing": ("raised", ["get /nodes/nope"]),
    "list nodes": ("ok", ["list_prefix /nodes/"]),
    "list live nodes": ("ok", ["list_prefix /nodes/"]),
    "restart a0": ("ok", ["get /pods/a/worker-0", "put /pods/a/worker-0"]),
    "restart big": ("ok", ["get /pods/big/worker-0", "put /pods/big/worker-0"]),
    "heartbeat n0": ("ok", ["get /nodes/n0", "has_lease 1", "renew_lease 1"]),
    "heartbeat n2 lapsed": ("ok", [
        "get /nodes/n2",
        "has_lease 2",
        "renew_lease 2",
        "has_lease 2",
        "revoke_lease 2",
        "grant_lease 2.0",
        "put /heartbeats/n2",
        "put /nodes/n2",
    ]),
    "heartbeat n1 unleased": ("raised", ["get /nodes/n1"]),
    "sweep 3.5": ("ok", [
        "expire_leases 3.5",
        "list_prefix /nodes/",
        "get /heartbeats/n0",
        "get /nodes/n0",
        "put /nodes/n0",
        "list_prefix /pods/",
        "put /pods/a/worker-0",
        "get /heartbeats/n2",
    ]),
    "heartbeat n0 cordoned": ("raised", ["get /nodes/n0"]),
    "cordon n0 again": ("ok", ["get /nodes/n0"]),
    "cordon n1": ("ok", [
        "get /nodes/n1",
        "put /nodes/n1",
        "list_prefix /pods/",
        "put /pods/a/ps-0",
    ]),
    "uncordon n1": ("ok", ["get /nodes/n1", "put /nodes/n1"]),
    "uncordon n1 again": ("ok", ["get /nodes/n1"]),
    "cluster allocated": ("ok", ["list_prefix /nodes/"]),
    "pods per job": ("ok", ["list_prefix /pods/"]),
    "delete a0": ("ok", [
        "get /pods/a/worker-0",
        "get /nodes/n0",
        "put /nodes/n0",
        "delete /pods/a/worker-0",
    ]),
    "delete big": ("ok", ["get /pods/big/worker-0", "delete /pods/big/worker-0"]),
    "delete missing": ("ok", ["get /pods/nope/worker-0"]),
    "sweep 5.0": ("ok", [
        "expire_leases 5.0",
        "list_prefix /nodes/",
        "get /heartbeats/n2",
        "get /nodes/n2",
        "put /nodes/n2",
        "list_prefix /pods/",
        "put /pods/b/worker-0",
    ]),
    "remove n2": ("ok", [
        "get /nodes/n2",
        "has_lease 3",
        "delete /heartbeats/n2",
        "delete /nodes/n2",
    ]),
    "delete b0 dangling": ("ok", [
        "get /pods/b/worker-0",
        "get /nodes/n2",
        "delete /pods/b/worker-0",
    ]),
    "remove n2 again": ("ok", ["get /nodes/n2"]),
    "re-register n0 leased": ("ok", [
        "get /nodes/n0",
        "grant_lease 2.0",
        "put /heartbeats/n0",
        "put /nodes/n0",
    ]),
    "heartbeat n0 renew": ("ok", ["get /nodes/n0", "has_lease 4", "renew_lease 4"]),
    "remove n1": ("ok", ["get /nodes/n1", "delete /heartbeats/n1", "delete /nodes/n1"]),
    "list pods end": ("ok", ["list_prefix /pods/"]),
    "list nodes end": ("ok", ["list_prefix /nodes/"]),
}
EXPECTED_DIGEST = "9c6107a1a30f5340"


class TestSameStoreCalls:
    def test_every_method_issues_the_recorded_calls(self):
        readable, digest = summarise(record_scenario())
        assert readable == EXPECTED_CALLS
        assert digest == EXPECTED_DIGEST


def flaky_deploy(seed=11, steps=16):
    """A small ControlLoop over a seeded flaky store; returns the outcome."""
    flaky = FlakyKVStore(KVStore(), error_rate=0.06, seed=RandomSource(seed))
    api = APIServer(RetryingKVStore(flaky, policy=RetryPolicy(max_attempts=2)))
    nodes = [f"n{i}" for i in range(4)]
    for name in nodes:
        api.register_node(name, cpu_mem(16, 64), lease_ttl=3.0, now=0.0)
    api.create_pod(worker("tenant", demand=cpu_mem(1, 1)))
    api.bind_pod("tenant/worker-0", "n0")
    loop = ControlLoop(api, make_scheduler("optimus"))
    models = ("resnet-50", "seq2seq", "cnn-rand", "dssm", "inception-bn")
    jobs = [make_job(m, mode="sync", job_id=f"j{k}") for k, m in enumerate(models)]
    running = {}
    rolled_back, raised = [], []
    for step in range(steps):
        now = float(loop.step_index)
        active = [j for k, j in enumerate(jobs) if 2 * k <= step < 2 * k + 9]
        views = [
            JobView(
                spec=j,
                remaining_steps=50_000,
                speed=StepTimeModel(j.profile, "sync").speed,
                observation_count=100,
                current_allocation=TaskAllocation(*running.get(j.job_id, (0, 0))),
            )
            for j in active
        ]
        try:
            for name in nodes:
                loop.heartbeat(name, now)
            report = loop.step(views)
        except KVStoreError as exc:
            raised.append((step, type(exc).__name__))
            continue
        rolled_back.append(report.reconcile.jobs_rolled_back)
        running = {}
        for pod in APIServer(flaky.inner).list_pods():
            counts = running.setdefault(pod.job_id, [0, 0])
            counts[pod.role != "worker"] += 1
    final = sorted(
        f"{p.name}@{p.node}:{p.phase}:{p.restarts}"
        for p in APIServer(flaky.inner).list_pods()
    )
    return flaky.failures_injected, rolled_back, raised, final


#: The outcome of ``flaky_deploy()`` before the read path remembered
#: decoded objects: same failure draws, same rollbacks, same final pods.
EXPECTED_FLAKY = (
    92,
    [
        (),
        (),
        ("j1",),
        (),
        ("j2", "j1"),
        (),
        ("j3", "j1"),
        ("j3",),
        ("j1", "j3", "j4"),
        (),
        (),
        (),
        (),
        (),
    ],
    [(9, "TransientKVError"), (10, "TransientKVError")],
    [
        "j4/ps-0@n0:Running:0",
        "j4/ps-1@n0:Running:0",
        "j4/ps-2@n0:Running:0",
        "j4/ps-3@n1:Running:0",
        "j4/worker-0@n3:Running:0",
        "j4/worker-1@n3:Running:0",
        "j4/worker-2@n3:Running:0",
        "j4/worker-3@n2:Running:0",
        "tenant/worker-0@n0:Running:0",
    ],
)


class TestFlakyDeployUnchanged:
    def test_seeded_flaky_deploy_matches_recorded_outcome(self):
        failures, rolled_back, raised, final = flaky_deploy()
        assert failures > 0 and raised and any(rolled_back)
        assert (failures, rolled_back, raised, final) == EXPECTED_FLAKY
