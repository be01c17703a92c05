"""One deploy drill driver for the §5.5 crash and failover contract.

Every drill drives a small synthetic fleet through the real
ControlLoop/APIServer/KVStore stack with the helpers here: the fleet
(:class:`DrillFleet`), the nodes and their heartbeats (:class:`DrillNodes`)
and the post-drain leak audit (:func:`collect_leaks`).
:func:`run_crash_drill` is the crash drill behind ``repro drill`` and the
soak ``drill`` section; the failover drill
(:func:`repro.deploy.failover.run_failover_drill`) keeps its own election
and kill logic on the same helpers. :func:`drill_config` parses a drill
section of either kind once, and :func:`run_drill` runs it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster import cpu_mem
from repro.common.errors import ConfigurationError, ControllerCrashed
from repro.deploy.loop import ControlLoop
from repro.faults.crashpoints import (
    CRASH_POINTS,
    RECONCILE_CRASH_POINTS,
    ControllerCrash,
    CrashPointInjector,
)
from repro.k8s.api import APIServer
from repro.k8s.controller import INTENT_DONE, JobController
from repro.k8s.election import LeaderElection
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import EVENT_JOB_ARRIVED, NULL_TRACER, Tracer
from repro.schedulers import JobView, make_scheduler
from repro.workloads import MODEL_ZOO, StepTimeModel, make_job

#: Drill kinds a scenario's ``drill`` section may name.
DRILL_KINDS = ("crash", "failover")
#: Training steps each drill job makes per scheduling step.
STEP_PROGRESS = 250.0
#: The leak fields of a ``run_completed`` accounting event.
LEAK_KEYS = ("leaked_pods", "leaked_leases", "leaked_intents")


class DrillFleet:
    """``jobs`` sync jobs ``<prefix>-<i>``; job ``i`` trains the ``(i + seed)``-th
    zoo model and claims ``max(50,000 - progress, 1,000)`` remaining steps, so
    the scheduler keeps every job running for the whole drill."""

    def __init__(self, seed: int, jobs: int, prefix: str, tracer: Tracer = NULL_TRACER):
        models = sorted(MODEL_ZOO)
        self.specs = [
            make_job(models[(i + seed) % len(models)], mode="sync", job_id=f"{prefix}-{i}")
            for i in range(jobs)
        ]
        self.job_ids = [s.job_id for s in self.specs]
        self._truths = {s.job_id: StepTimeModel(s.profile, "sync") for s in self.specs}
        self.progress: Dict[str, float] = dict.fromkeys(self.job_ids, 0.0)
        for spec in self.specs:
            # The control loop never admits jobs itself; announce them so the
            # stream checker can hold them to the no-lost-jobs invariant.
            tracer.emit(
                EVENT_JOB_ARRIVED, 0.0, job_id=spec.job_id, model=spec.model_name,
                mode=spec.mode, arrival_time=0.0,
            )

    def views(self) -> List[JobView]:
        progress = self.progress
        return [
            JobView(
                spec=spec,
                remaining_steps=max(50_000.0 - progress[spec.job_id], 1_000.0),
                speed=lambda p, w, t=self._truths[spec.job_id]: t.speed(p, w),
                observation_count=100,
            )
            for spec in self.specs
        ]

    def advance(self) -> None:
        for job_id in self.progress:
            self.progress[job_id] += STEP_PROGRESS

    def restore(self, recovered: Mapping[str, float]) -> None:
        """Merge the checkpoint progress a recovery or takeover returned."""
        for job_id, saved in recovered.items():
            self.progress[job_id] = max(self.progress.get(job_id, 0.0), saved)


class DrillNodes:
    """Servers ``n0 ..``, 16 CPUs / 64 GB each, holding health leases when
    ``lease_ttl > 0``. Node index ``silent`` (-1: none) stops heartbeating
    after step 0, so the control loop's sweep must cordon it."""

    def __init__(self, api: APIServer, servers: int, lease_ttl: float, silent: int = -1):
        self.api = api
        self.names = [f"n{i}" for i in range(servers)]
        self.lease_ttl = lease_ttl if lease_ttl > 0 else None
        self.silent = self.names[silent] if silent >= 0 else None
        for name in self.names:
            api.register_node(name, cpu_mem(16, 64), lease_ttl=self.lease_ttl, now=0.0)

    def heartbeat(self, now: float, ping: Optional[Callable[[str, float], object]] = None):
        """Renew each live, uncordoned node's lease through *ping*: the kubelet
        path by default, :meth:`ControlLoop.heartbeat` to trace and count it."""
        if self.lease_ttl is None:
            return
        ping = ping or self.api.heartbeat_node
        for name in self.names:
            if not (name == self.silent and now >= 1) and not self.api.node(name).cordoned:
                ping(name, now)


def collect_leaks(
    nodes: DrillNodes, controller: JobController, elections: Sequence[LeaderElection] = ()
) -> Dict[str, List[str]]:
    """Audit a drained drill and deregister its nodes: pods, node or election
    leases and unfinished intents still in the store are leaks."""
    api = nodes.api
    leases = []
    for name in nodes.names:
        lease_id = api.node(name).lease_id
        api.remove_node(name)
        if lease_id is not None and api.store.has_lease(lease_id):
            leases.append(f"{name}:{lease_id}")
    for election in elections:
        if election._lease_id is not None and api.store.has_lease(election._lease_id):
            leases.append(f"election:{election.candidate}")
    intents = controller.list_intents().items()
    return {
        "leaked_pods": sorted(p.name for p in api.list_pods()),
        "leaked_leases": sorted(leases),
        "leaked_intents": sorted(j for j, intent in intents if intent.phase != INTENT_DONE),
    }


@dataclass(frozen=True)
class CrashDrillConfig:
    """One crash drill (``repro drill`` / soak ``"kind": "crash"``)."""

    seed: int = 0
    jobs: int = 3
    steps: int = 6
    servers: int = 4
    #: Index of the node whose heartbeats stop after step 0 (-1: none).
    expire_node: int = -1
    #: Node health lease TTL in steps; <= 0 runs without leases.
    lease_ttl: float = 2.0
    policy: str = "optimus"
    #: Reconcile crash point the controller dies at once (None: no crash).
    crash_point: Optional[str] = None


@dataclass
class DrillOutcome:
    """What a drill leaves for its caller; fields after ``leaks`` are crash-drill only."""

    jobs: List[str] = field(default_factory=list)
    leaks: Dict[str, List[str]] = field(default_factory=lambda: {k: [] for k in LEAK_KEYS})
    #: §5.5 invariant breaches after the steps, and a crash that never fired.
    failures: List[str] = field(default_factory=list)
    #: One message per injected controller crash; each was recovered.
    crashes: List[str] = field(default_factory=list)
    #: Pods bound and per-job stored checkpoints after the steps.
    pods_running: int = 0
    checkpoints: Dict[str, Optional[float]] = field(default_factory=dict)


def _check_invariants(
    fleet: DrillFleet, nodes: DrillNodes, controller: JobController, at_crash: Mapping
) -> List[str]:
    """No orphaned pods, node capacity equal to bound pods, the silent node
    cordoned and empty, at most one interval of progress lost to a crash."""
    failures = []
    api = nodes.api
    pods = api.list_pods()
    orphans = [p.name for p in pods if p.job_id not in fleet.progress]
    if orphans:
        failures.append(f"orphaned pods: {orphans}")
    for node in api.list_nodes():
        bound = sum((p.demand for p in pods if p.node == node.name), start=cpu_mem(0, 0))
        if dict(node.allocated.items()) != dict(bound.items()):
            failures.append(f"node {node.name}: allocated {node.allocated} != bound {bound}")
    if nodes.silent is not None and nodes.lease_ttl is not None:
        if not api.node(nodes.silent).cordoned:
            failures.append(f"dead node {nodes.silent} was never cordoned")
        on_dead = [p.name for p in pods if p.node == nodes.silent]
        if on_dead:
            failures.append(f"pods still on dead node: {on_dead}")
    for job_id, progress in at_crash.items():
        saved = controller.load_checkpoint(job_id)
        if saved is not None and progress - saved > STEP_PROGRESS:
            failures.append(f"{job_id}: lost {progress - saved:.0f} steps (> 1 interval)")
    return failures


def run_crash_drill(
    config: CrashDrillConfig,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
) -> DrillOutcome:
    """Step the fleet, check the §5.5 invariants, drain, audit the leaks.

    The controller dies once at ``config.crash_point``, in a step or in the
    drain; a fresh :class:`ControlLoop` recovers from the store alone and
    repeats what was interrupted. A scripted crash that never fires is a
    failure: the drill exercised nothing.
    """
    api = APIServer()
    fleet = DrillFleet(config.seed, config.jobs, "drill", tracer)
    nodes = DrillNodes(api, config.servers, config.lease_ttl, silent=config.expire_node)
    crash = [ControllerCrash(config.crash_point)] if config.crash_point else []
    loop = ControlLoop(
        api, make_scheduler(config.policy), tracer=tracer, metrics=metrics,
        crash_points=CrashPointInjector(crash) if crash else None,
    )
    outcome = DrillOutcome(jobs=fleet.job_ids)

    def restart(dead: ControlLoop, exc: ControllerCrashed) -> ControlLoop:
        outcome.crashes.append(str(exc))
        fresh = ControlLoop(
            api, make_scheduler(config.policy), tracer=tracer, metrics=metrics,
            start_step=dead.step_index,
        )
        fleet.restore(fresh.recover())
        return fresh

    at_crash: Dict[str, float] = {}
    for _ in range(config.steps):
        nodes.heartbeat(float(loop.step_index), loop.heartbeat)
        try:
            loop.step(fleet.views(), progress=dict(fleet.progress))
        except ControllerCrashed as exc:
            at_crash = dict(fleet.progress)
            loop = restart(loop, exc)
            loop.step(fleet.views(), progress=dict(fleet.progress))
        fleet.advance()

    outcome.failures = _check_invariants(fleet, nodes, loop.controller, at_crash)
    outcome.pods_running = len(api.list_pods())
    outcome.checkpoints = {j: loop.controller.load_checkpoint(j) for j in fleet.job_ids}
    try:
        loop.drain(progress=dict(fleet.progress))
    except ControllerCrashed as exc:  # the first real teardown may be the drain's
        loop = restart(loop, exc)
        loop.drain(progress=dict(fleet.progress))
    if crash and not outcome.crashes:
        outcome.failures.append(f"crash point {config.crash_point!r} never fired")
    outcome.leaks = collect_leaks(nodes, loop.controller)
    return outcome


#: Lower bounds of the integer keys; failover lease TTLs must also be > 0.
_MINIMUM = {
    "jobs": 1, "servers": 1, "steps": 0, "steps_before": 0, "steps_after": 0,
    "kills": 1, "expire_node": -1,
}


def drill_config(section: Mapping, seed: int = 0, policy: str = "optimus"):
    """Validate a drill section; return its :class:`CrashDrillConfig` or
    :class:`~repro.deploy.failover.FailoverConfig` (by ``kind``, default
    ``"crash"``). Keys are the config's fields (a crash drill takes *seed*
    from the caller); each value must have its default's type, be finite
    and in range, and a crash point must be in the kind's set, or
    :class:`ConfigurationError` is raised. *seed* and *policy* fill gaps."""
    from repro.deploy.failover import FailoverConfig

    if not isinstance(section, Mapping):
        raise ConfigurationError(f"drill must be an object, got {type(section).__name__}")
    kind = section.get("kind", "crash")
    if kind not in DRILL_KINDS:
        raise ConfigurationError(f"drill 'kind' must be one of {DRILL_KINDS}, got {kind!r}")
    failover = kind == "failover"
    fields = dataclasses.fields(FailoverConfig if failover else CrashDrillConfig)
    keys = [f.name for f in fields if failover or f.name != "seed"]
    unknown = sorted(map(str, set(section) - set(keys) - {"kind"}))
    if unknown:
        raise ConfigurationError(
            f"{kind} drill has unknown key(s): {', '.join(unknown)} "
            f"(known: kind, {', '.join(keys)})"
        )
    values = {"seed": seed, "policy": policy}
    points = CRASH_POINTS if failover else RECONCILE_CRASH_POINTS
    for f in fields:
        value, where = section.get(f.name), f"{kind} drill {f.name!r}"
        if value is None:
            continue
        if f.default is None or isinstance(f.default, str):
            if not isinstance(value, str):
                raise ConfigurationError(f"{where} must be a string, got {value!r}")
            if f.name == "crash_point" and value not in points:
                raise ConfigurationError(f"{where} must be one of {list(points)}, got {value!r}")
            values[f.name] = value
            continue
        numeric = type(f.default)
        if isinstance(value, bool) or not isinstance(value, (numeric, int)) or (
            not math.isfinite(value)
        ):
            raise ConfigurationError(f"{where} must be a finite {numeric.__name__}, got {value!r}")
        low = _MINIMUM.get(f.name)
        if low is not None and value < low:
            raise ConfigurationError(f"{where} must be >= {low}, got {value!r}")
        if failover and numeric is float and value <= 0:
            raise ConfigurationError(f"{where} must be > 0, got {value!r}")
        values[f.name] = numeric(value)
    if failover:
        return FailoverConfig(**values)
    config = CrashDrillConfig(**values)
    if not -1 <= config.expire_node < config.servers:
        raise ConfigurationError(
            f"crash drill 'expire_node' must be in [-1, {config.servers}), "
            f"got {config.expire_node}"
        )
    return config


def run_drill(
    section: Mapping, tracer: Tracer, seed: int = 0, policy: str = "optimus"
) -> DrillOutcome:
    """Run the drill *section* names on *tracer*; the caller emits the
    ``run_completed`` accounting with the returned jobs and leaks."""
    from repro.deploy.failover import FailoverConfig, run_failover_drill

    config = drill_config(section, seed=seed, policy=policy)
    if not isinstance(config, FailoverConfig):
        return run_crash_drill(config, tracer=tracer)
    outcome = run_failover_drill(config, tracer=tracer, emit_accounting=False)
    return DrillOutcome(jobs=outcome.jobs, leaks={k: getattr(outcome, k) for k in LEAK_KEYS})
