"""The miniature API server (§5.5).

State lives in the etcd-like :class:`~repro.k8s.kvstore.KVStore` under
``/nodes/...`` and ``/pods/...``, exactly as Kubernetes persists its objects
in etcd; the API server is a thin validating layer on top, with the node
capacity accounting a real apiserver+scheduler would enforce at binding
time. The Optimus deployment polls this API for cluster information and job
states, as described in §5.5.

Polling is the deploy loop's hot path, so reads decode only what changed:
the server remembers the last payload read under each key together with
the fields decoded from it, and every read still goes to the store and
compares payloads, so writes from anywhere show up on the next read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from repro.cluster.resources import ResourceVector
from repro.common.errors import KVStoreError
from repro.k8s.kvstore import KVStore
from repro.k8s.objects import (
    PHASE_FAILED,
    PHASE_PENDING,
    PHASE_RUNNING,
    NodeInfo,
    PodSpec,
)

NODE_PREFIX = "/nodes/"
POD_PREFIX = "/pods/"
#: Lease-attached liveness markers, one per heartbeating node. The marker
#: disappearing (its lease expired) is what the health sweep keys off.
HEARTBEAT_PREFIX = "/heartbeats/"

_T = TypeVar("_T", PodSpec, NodeInfo)
#: store key -> (payload last read under it, the fields decoded from it)
_Memo = Dict[str, Tuple[str, Dict[str, Any]]]


def _build(cls: Type[_T], fields: Dict[str, Any]) -> _T:
    """A fresh object with already-validated *fields*.

    Every field is an immutable value (``ResourceVector`` included), so
    the copy can share them while callers mutate the object they get.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class APIServer:
    """Validated CRUD over nodes and pods, backed by a KVStore."""

    def __init__(self, store: Optional[KVStore] = None):
        # `store or KVStore()` would silently drop an *empty* store (KVStore
        # defines __len__), replacing e.g. a fresh RetryingKVStore wrapper
        # with an unwrapped one.
        self.store = store if store is not None else KVStore()
        self._pods: _Memo = {}
        self._nodes: _Memo = {}

    @staticmethod
    def _decode(memo: _Memo, key: str, payload: str, cls: Type[_T]) -> Dict[str, Any]:
        """The fields of *payload*, read under *key*.

        The payload is decoded only when it differs from the one *memo*
        holds for the key. The returned dict is the remembered one: build
        objects from it with :func:`_build`, never mutate it.
        """
        entry = memo.get(key)
        if entry is None or entry[0] != payload:
            entry = memo[key] = (payload, vars(cls.from_json(payload)))
        return entry[1]

    def fence_writes(self, election) -> None:
        """Guard every write through this server with a leadership check.

        Wraps the backing store in a
        :class:`~repro.k8s.election.FencedKVStore` bound to *election*,
        so a request carrying a stale fencing epoch -- any mutation
        attempted after the holder's reign ended -- is rejected with
        :class:`~repro.common.errors.StaleLeaderError`. Re-fencing
        replaces the previous guard instead of stacking wrappers.
        """
        from repro.k8s.election import FencedKVStore

        self.store = FencedKVStore(getattr(self.store, "raw", self.store), election)

    # -- nodes -------------------------------------------------------------------
    def register_node(
        self,
        name: str,
        capacity: ResourceVector,
        lease_ttl: Optional[float] = None,
        now: float = 0.0,
    ) -> NodeInfo:
        """Register a node; re-registering an identical node is idempotent.

        A node that crashes and comes back re-announces itself with the
        same name and capacity (the kubelet's normal recovery path); that
        must not error, must preserve the existing allocation record, and
        -- when the node had been cordoned for missing heartbeats --
        uncordons it under a fresh lease. Re-registering with a
        *different* capacity is a real conflict and still raises.

        With *lease_ttl*, the node's health is backed by a KV-store lease:
        it must :meth:`heartbeat_node` at least every ``lease_ttl`` clock
        units or the next :meth:`sweep_expired` cordons it. Without
        (the default), the node is trusted forever -- the pre-lease
        behaviour, bit-identical for existing configurations.
        """
        key = NODE_PREFIX + name
        payload = self.store.get(key)
        if payload is not None:
            node = NodeInfo.from_json(payload)
            if node.capacity != capacity:
                raise KVStoreError(
                    f"node {name!r} already registered with capacity "
                    f"{node.capacity}, not {capacity}"
                )
            if lease_ttl is None and not node.cordoned:
                return node
            # A re-announce revives the node: fresh lease, cordon lifted.
            node.cordoned = False
            node.lease_id = self._grant_node_lease(name, lease_ttl, now)
            node.lease_ttl = lease_ttl
            self._save_node(node)
            return node
        node = NodeInfo(
            name=name,
            capacity=capacity,
            lease_id=self._grant_node_lease(name, lease_ttl, now),
            lease_ttl=lease_ttl,
        )
        self.store.put(key, node.to_json())
        return node

    def _grant_node_lease(
        self, name: str, lease_ttl: Optional[float], now: float
    ) -> Optional[int]:
        if lease_ttl is None:
            return None
        lease_id = self.store.grant_lease(lease_ttl, now)
        self.store.put(HEARTBEAT_PREFIX + name, str(lease_id), lease=lease_id)
        return lease_id

    def heartbeat_node(self, name: str, now: float) -> NodeInfo:
        """Renew a node's health lease (the kubelet status ping).

        Raises when the node has no lease (registered without heartbeats)
        or when it was already cordoned -- a node the sweep declared dead
        must re-register, not sneak back in with a late ping.

        A lease that lapsed but was *not yet swept* (no cordon happened)
        is a flapping node, not a dead one: the heartbeat re-grants a
        fresh lease with the original TTL instead of raising, and the
        caller can tell by the changed ``lease_id``. Without the regrant
        every late ping inside the sweep window forced a manual
        re-register.
        """
        node = self.node(name)
        if node.lease_id is None:
            raise KVStoreError(f"node {name!r} has no health lease")
        if node.cordoned:
            raise KVStoreError(
                f"node {name!r} lease expired; it must re-register"
            )
        if self.store.has_lease(node.lease_id):
            try:
                self.store.renew_lease(node.lease_id, now)
                return node
            except KVStoreError:
                pass  # lapsed at/past ttl but unswept: fall through to regrant
        ttl = node.lease_ttl
        if ttl is None and self.store.has_lease(node.lease_id):
            ttl = self.store.lease_ttl(node.lease_id)  # pre-regrant record
        if ttl is None:
            raise KVStoreError(
                f"node {name!r} lease expired and its ttl is unknown; "
                "it must re-register"
            )
        if self.store.has_lease(node.lease_id):
            self.store.revoke_lease(node.lease_id)
        node.lease_id = self._grant_node_lease(name, ttl, now)
        node.lease_ttl = ttl
        self._save_node(node)
        return node

    def sweep_expired(self, now: float) -> List[str]:
        """Cordon every node whose health lease lapsed by *now*.

        Expires KV leases (dropping their heartbeat markers), cordons the
        affected nodes, and marks their bound pods ``Failed`` -- lost with
        the machine, so the next reconcile relaunches those jobs from
        checkpoint. Returns the newly cordoned node names, sorted.
        """
        self.store.expire_leases(now)
        cordoned = []
        for node in self.list_nodes():
            if node.cordoned or node.lease_id is None:
                continue
            if self.store.get(HEARTBEAT_PREFIX + node.name) is not None:
                continue
            self.cordon_node(node.name)
            cordoned.append(node.name)
        return cordoned

    def cordon_node(self, name: str) -> NodeInfo:
        """Take a node out of scheduling and mark its bound pods lost."""
        node = self.node(name)
        if node.cordoned:
            return node
        node.cordoned = True
        self._save_node(node)
        for pod in self.list_pods(node=name):
            pod.phase = PHASE_FAILED
            self.store.put(POD_PREFIX + pod.name, pod.to_json())
        return node

    def uncordon_node(self, name: str) -> NodeInfo:
        """Return a cordoned node to service (its capacity becomes usable)."""
        node = self.node(name)
        if node.cordoned:
            node.cordoned = False
            self._save_node(node)
        return node

    def remove_node(self, name: str) -> bool:
        """Delete a node's record entirely (e.g. a cordoned node reclaimed).

        Pods still bound to the node keep their (now dangling) binding;
        :meth:`delete_pod` tolerates the missing node when they are torn
        down. Returns ``True`` when the node existed.
        """
        payload = self.store.get(NODE_PREFIX + name)
        if payload is None:
            return False
        node = NodeInfo.from_json(payload)
        if node.lease_id is not None and self.store.has_lease(node.lease_id):
            self.store.revoke_lease(node.lease_id)
        else:
            self.store.delete(HEARTBEAT_PREFIX + name)
        return self.store.delete(NODE_PREFIX + name)

    def node(self, name: str) -> NodeInfo:
        key = NODE_PREFIX + name
        payload = self.store.get(key)
        if payload is None:
            raise KVStoreError(f"unknown node {name!r}")
        return _build(NodeInfo, self._decode(self._nodes, key, payload, NodeInfo))

    def list_nodes(self, include_cordoned: bool = True) -> List[NodeInfo]:
        listing = self.store.list_prefix(NODE_PREFIX)
        nodes = [
            self._decode(self._nodes, key, payload, NodeInfo)
            for key, payload in listing.items()
        ]
        if len(self._nodes) > len(listing):  # forget keys no longer listed
            self._nodes = {key: self._nodes[key] for key in listing}
        return [
            _build(NodeInfo, node)
            for node in nodes
            if include_cordoned or not node["cordoned"]
        ]

    def _save_node(self, node: NodeInfo) -> None:
        self.store.put(NODE_PREFIX + node.name, node.to_json())

    # -- pods --------------------------------------------------------------------
    def create_pod(self, pod: PodSpec) -> PodSpec:
        key = POD_PREFIX + pod.name
        if key in self.store:
            raise KVStoreError(f"pod {pod.name!r} already exists")
        if pod.bound:
            raise KVStoreError("pods must be created unbound; use bind_pod")
        self.store.put(key, pod.to_json())
        return pod

    def pod(self, name: str) -> PodSpec:
        key = POD_PREFIX + name
        payload = self.store.get(key)
        if payload is None:
            raise KVStoreError(f"unknown pod {name!r}")
        return _build(PodSpec, self._decode(self._pods, key, payload, PodSpec))

    def list_pods(
        self, job_id: Optional[str] = None, node: Optional[str] = None
    ) -> List[PodSpec]:
        listing = self.store.list_prefix(POD_PREFIX)
        pods = [
            self._decode(self._pods, key, payload, PodSpec)
            for key, payload in listing.items()
        ]
        if len(self._pods) > len(listing):  # forget keys no longer listed
            self._pods = {key: self._pods[key] for key in listing}
        return [
            _build(PodSpec, pod)
            for pod in pods
            if (job_id is None or pod["job_id"] == job_id)
            and (node is None or pod["node"] == node)
        ]

    def bind_pod(self, pod_name: str, node_name: str) -> PodSpec:
        """Bind a pending pod to a node, enforcing capacity."""
        pod = self.pod(pod_name)
        if pod.bound:
            raise KVStoreError(f"pod {pod_name!r} is already bound to {pod.node}")
        node = self.node(node_name)
        if node.cordoned:
            raise KVStoreError(
                f"node {node_name!r} is cordoned; cannot bind {pod_name!r}"
            )
        if not pod.demand.fits_within(node.allocatable):
            raise KVStoreError(
                f"pod {pod_name!r} does not fit on node {node_name!r} "
                f"(needs {pod.demand}, allocatable {node.allocatable})"
            )
        node.allocated = node.allocated + pod.demand
        self._save_node(node)
        pod.node = node_name
        pod.phase = PHASE_RUNNING
        self.store.put(POD_PREFIX + pod.name, pod.to_json())
        return pod

    def delete_pod(self, pod_name: str) -> bool:
        """Delete a pod, releasing its node resources if bound.

        A bound pod whose node record has vanished (a cordoned node that
        was since removed) still deletes cleanly -- there is no capacity
        left to release. Only the *absence* of the record is tolerated; a
        transient store failure while reading it still raises, so flaky-KV
        runs never silently skip the release.
        """
        key = POD_PREFIX + pod_name
        payload = self.store.get(key)
        if payload is None:
            return False
        pod = _build(PodSpec, self._decode(self._pods, key, payload, PodSpec))
        if pod.bound:
            node_key = NODE_PREFIX + pod.node
            node_payload = self.store.get(node_key)
            if node_payload is not None:
                node = _build(
                    NodeInfo, self._decode(self._nodes, node_key, node_payload, NodeInfo)
                )
                node.allocated = node.allocated - pod.demand
                self._save_node(node)
        return self.store.delete(key)

    def restart_pod(self, pod_name: str) -> PodSpec:
        """Mark a pod restarted in place (e.g. straggler replacement, §5.2)."""
        pod = self.pod(pod_name)
        pod.restarts += 1
        pod.phase = PHASE_RUNNING if pod.bound else PHASE_PENDING
        self.store.put(POD_PREFIX + pod.name, pod.to_json())
        return pod

    # -- aggregates --------------------------------------------------------------
    def cluster_allocated(self) -> ResourceVector:
        total = ResourceVector()
        for node in self.list_nodes():
            total = total + node.allocated
        return total

    def pods_per_job(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for pod in self.list_pods():
            counts[pod.job_id] = counts.get(pod.job_id, 0) + 1
        return counts
