"""Tests for FlakyKVStore (injection) and RetryingKVStore (recovery)."""

import inspect
import os

import pytest

from repro.cluster.resources import cpu_mem
from repro.common.errors import FaultInjectionError, KVStoreError, TransientKVError
from repro.common.rand import RandomSource
from repro.common.retry import RetryPolicy
from repro.faults import FlakyKVStore, RetryingKVStore
from repro.k8s import APIServer, PodSpec, pod_name
from repro.k8s.api import NODE_PREFIX
from repro.k8s.election import LEADER_KEY, FencedKVStore, LeaderElection
from repro.k8s.kvstore import KVStore
from repro.obs import MetricsRegistry, RecordingTracer

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def exercise(store, rounds=50):
    """A fixed mixed workload; returns the op-outcome log (True=ok)."""
    log = []
    for i in range(rounds):
        for fn in (
            lambda: store.put(f"k{i % 7}", f"v{i}"),
            lambda: store.get(f"k{i % 7}"),
            lambda: store.delete(f"k{(i + 3) % 7}"),
            lambda: store.list_prefix("k"),
        ):
            try:
                fn()
                log.append(True)
            except TransientKVError:
                log.append(False)
    return log


class TestFlakyKVStore:
    def test_rate_validation(self):
        with pytest.raises(FaultInjectionError):
            FlakyKVStore(error_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FlakyKVStore(error_rate=-0.1)

    def test_zero_rate_is_pure_delegation(self):
        store = FlakyKVStore(error_rate=0.0)
        assert exercise(store) == [True] * 200
        assert store.failures_injected == 0
        assert store.get("k0") is not None

    def test_same_seed_same_failure_sequence(self):
        log_a = exercise(
            FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        )
        log_b = exercise(
            FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        )
        assert log_a == log_b
        assert False in log_a and True in log_a

    def test_failed_put_does_not_mutate(self):
        store = FlakyKVStore(error_rate=1.0)
        with pytest.raises(TransientKVError):
            store.put("key", "value")
        assert len(store) == 0
        assert store.revision == 0

    def test_watch_path_is_reliable(self):
        store = FlakyKVStore(error_rate=1.0)
        events = []
        watch_id = store.watch("k", events.append)
        store.inner.put("k1", "v")  # behind the flaky front
        assert len(events) == 1
        assert store.cancel_watch(watch_id)


class TestRetryingKVStore:
    def test_below_budget_errors_invisible_but_counted(self):
        # error_rate=0.3 with a 12-attempt budget: P(12 consecutive
        # failures) is ~5e-7 per op, so even 200 ops across any seed stay
        # below the budget and no error may escape.
        metrics = MetricsRegistry()
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        store = RetryingKVStore(
            flaky, policy=RetryPolicy(max_attempts=12), tracer=tracer, metrics=metrics
        )
        log = exercise(store)
        assert log == [True] * 200
        assert flaky.failures_injected > 0
        retries = metrics.snapshot()["counters"]["kv.retries"]
        assert retries == flaky.failures_injected
        assert len(tracer.of_type("kv_retry")) == retries
        assert tracer.of_type("kv_retry_exhausted") == []

    def test_beyond_budget_raises_kvstore_error_after_max_attempts(self):
        metrics = MetricsRegistry()
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=1.0)
        policy = RetryPolicy(max_attempts=3)
        store = RetryingKVStore(flaky, policy=policy, tracer=tracer, metrics=metrics)
        with pytest.raises(KVStoreError):
            store.put("key", "value")
        # Documented budget: exactly max_attempts tries, then the error.
        assert flaky.failures_injected == 3
        counters = metrics.snapshot()["counters"]
        assert counters["kv.retry_exhausted"] == 1
        assert counters["kv.retries"] == 2  # attempts 1 and 2 retried
        exhausted = tracer.of_type("kv_retry_exhausted")
        assert len(exhausted) == 1
        assert exhausted[0]["op"] == "put"
        assert exhausted[0]["attempts"] == 3

    def test_retry_events_carry_op_and_attempt(self):
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=0.5, seed=RandomSource(CHAOS_SEED))
        store = RetryingKVStore(
            flaky, policy=RetryPolicy(max_attempts=10), tracer=tracer
        )
        exercise(store, rounds=20)
        events = tracer.of_type("kv_retry")
        assert events
        for event in events:
            assert event["op"] in {"put", "get", "delete", "list_prefix"}
            assert event["attempt"] >= 1
            assert event["delay"] > 0

    def test_apiserver_workflow_survives_flaky_substrate(self):
        # The §5.5 claim end to end: a full register/create/bind/list cycle
        # on a flaky store completes once retries are in front of it.
        metrics = MetricsRegistry()
        flaky = FlakyKVStore(
            KVStore(), error_rate=0.25, seed=RandomSource(CHAOS_SEED)
        )
        api = APIServer(store=RetryingKVStore(flaky, metrics=metrics))
        api.register_node("n0", cpu_mem(16, 64))
        for index in range(4):
            spec = PodSpec(
                name=pod_name("j1", "worker", index),
                job_id="j1",
                role="worker",
                index=index,
                demand=cpu_mem(2, 4),
            )
            api.create_pod(spec)
            api.bind_pod(spec.name, "n0")
        assert len(api.list_pods(job_id="j1")) == 4
        assert flaky.failures_injected > 0
        assert metrics.snapshot()["counters"]["kv.retries"] > 0

    def test_pass_through_surfaces(self):
        inner = KVStore()
        store = RetryingKVStore(FlakyKVStore(inner, error_rate=0.0))
        store.put("a", "1")
        assert "a" in store
        assert store.get_with_revision("a") == ("1", 1)
        assert store.keys() == ["a"]
        assert len(store) == 1
        assert store.revision == inner.revision
        assert store.compare_and_swap("a", "1", "2")
        assert store.delete("a")


#: Every public KVStore method (plus the two dunders callers rely on).
KVSTORE_METHODS = sorted(
    name
    for name, value in vars(KVStore).items()
    if inspect.isfunction(value)
    and (not name.startswith("_") or name in ("__len__", "__contains__"))
)


class TestWrapperInterfaceParity:
    """A wrapper that drifts from the KVStore interface fails here, not in a drill."""

    @pytest.mark.parametrize("wrapper", [FlakyKVStore, RetryingKVStore, FencedKVStore])
    def test_every_kvstore_method_with_the_same_parameters(self, wrapper):
        for name in KVSTORE_METHODS:
            assert hasattr(wrapper, name), f"{wrapper.__name__} lacks {name}"
            expected = list(inspect.signature(getattr(KVStore, name)).parameters)
            actual = list(inspect.signature(getattr(wrapper, name)).parameters)
            assert actual == expected, f"{wrapper.__name__}.{name}"
        assert isinstance(vars(wrapper)["revision"], property)


class TestLeasedWrapperPaths:
    def test_campaign_over_retrying_flaky_store(self):
        flaky = FlakyKVStore(KVStore(), error_rate=0.2, seed=RandomSource(CHAOS_SEED))
        store = RetryingKVStore(flaky, policy=RetryPolicy(max_attempts=12))
        election = LeaderElection(store, "a", ttl=3.0)
        assert election.campaign(0.0) == 1
        assert election.is_leader(1.0)
        # The leader key went in under the candidate's lease via CAS.
        assert store.lease_keys(election._lease_id) == [LEADER_KEY]
        store.expire_leases(3.0)
        assert store.get(LEADER_KEY) is None
        assert LeaderElection(store, "b", ttl=3.0).campaign(3.0) == 2

    def test_leased_cas_draws_one_failure_like_before(self):
        flaky = FlakyKVStore(KVStore(), error_rate=1.0)
        lease = flaky.inner.grant_lease(5.0)
        with pytest.raises(TransientKVError):
            flaky.compare_and_swap("k", None, "v", lease=lease)
        assert flaky.failures_injected == 1
        assert flaky.inner.get("k") is None
        flaky.error_rate = 0.0
        assert flaky.compare_and_swap("k", None, "v", lease=lease)
        assert flaky.inner.lease_keys(lease) == ["k"]

    def test_lease_ttl_is_reliable_and_draws_nothing(self):
        flaky = FlakyKVStore(KVStore(), error_rate=1.0)
        lease = flaky.inner.grant_lease(4.0, now=1.0)
        store = RetryingKVStore(flaky)
        assert flaky.lease_ttl(lease) == store.lease_ttl(lease) == 4.0
        assert flaky.failures_injected == 0

    def test_heartbeat_regrants_a_pre_regrant_record_over_wrappers(self):
        flaky = FlakyKVStore(KVStore(), error_rate=0.0)
        api = APIServer(store=RetryingKVStore(flaky))
        node = api.register_node("n0", cpu_mem(16, 64), lease_ttl=2.0, now=0.0)
        # A record written before nodes remembered their lease ttl.
        node.lease_ttl = None
        flaky.inner.put(NODE_PREFIX + "n0", node.to_json())
        # Lapsed but not yet swept: the ttl comes from the store's lease.
        revived = api.heartbeat_node("n0", 2.5)
        assert revived.lease_id != node.lease_id
        assert revived.lease_ttl == 2.0
        assert not flaky.inner.has_lease(node.lease_id)
