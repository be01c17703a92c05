"""Controller failover drills: kill the leader, measure the takeover.

The HA counterpart of the crash drill: run a small job fleet through a
*leader* :class:`~repro.deploy.loop.ControlLoop` while a hot standby
ticks :meth:`~repro.deploy.loop.ControlLoop.standby_tick`, kill the
leader in one of several ways, and verify the standby takes over --
deposing the stale reign, replaying intents, and driving the jobs --
without dual leadership, leaked state, or unfenced stale writes. The job
fleet, node heartbeats and leak audit are the shared drill harness of
:mod:`repro.deploy.drill`; the election and kill logic live here.

Kill modes (``FailoverConfig.crash_point``):

* ``None`` -- silent death: the leader simply stops running; the standby
  notices once the election lease lapses.
* ``mid_step_deposed`` -- the GC-pause story: the lease is severed after
  the scheduling decision, so the reconcile writes bounce off the fence
  (``write_fenced`` events, :class:`StaleLeaderError`).
* ``before_campaign`` / ``after_elected`` -- the *successor* dies at the
  named election point and a replacement finishes the takeover.
* any reconcile crash point (``after_teardown``, ...) -- the leader dies
  mid-write with a torn intent the successor must replay.

The drill measures **takeover latency**: from the moment the dead
reign's lease expired (the earliest instant any successor could win) to
the first post-recovery schedule the successor completes. Everything is
in step units -- the deploy stack's clock is the step index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import (
    ControllerCrashed,
    SimulationError,
    StaleLeaderError,
)
from repro.deploy.drill import DrillFleet, DrillNodes, collect_leaks
from repro.deploy.loop import ControlLoop
from repro.faults.crashpoints import (
    CRASH_MID_STEP_DEPOSED,
    RECONCILE_CRASH_POINTS,
    ControllerCrash,
    CrashPointInjector,
)
from repro.k8s.api import APIServer
from repro.k8s.election import EPOCH_KEY, LeaderElection
from repro.k8s.kvstore import KVStore
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import EVENT_RUN_COMPLETED, RecordingTracer, Tracer
from repro.schedulers import make_scheduler
from repro.soak.checker import CheckerConfig, InvariantChecker


@dataclass(frozen=True)
class FailoverConfig:
    """One failover drill, fully deterministic given these fields."""

    seed: int = 0
    jobs: int = 3
    servers: int = 4
    #: Steps each reign leads before its scripted kill.
    steps_before: int = 3
    #: Steps the final leader runs after the last takeover.
    steps_after: int = 4
    #: Election lease TTL, in step units.
    lease_ttl: float = 2.0
    #: Node health lease TTL (kubelets heartbeat every step regardless).
    node_lease_ttl: float = 6.0
    policy: str = "optimus"
    #: How the leader dies; see the module docstring. ``None`` = silent.
    crash_point: Optional[str] = None
    #: How many leader kills (waves) the drill performs.
    kills: int = 1


@dataclass
class FailoverOutcome:
    """Everything one failover drill produced."""

    config: FailoverConfig
    jobs: List[str]
    #: Per-takeover ``first schedule - lease expiry``, in step units.
    takeover_latencies: List[float]
    #: Stale writes rejected by the fence across every deposed loop.
    fenced_writes: int
    #: The highest fencing epoch minted (== number of reigns).
    final_epoch: int
    leaked_pods: List[str] = field(default_factory=list)
    leaked_leases: List[str] = field(default_factory=list)
    leaked_intents: List[str] = field(default_factory=list)
    events: List[Dict] = field(default_factory=list)
    checker: Optional[InvariantChecker] = None
    report: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.checker is None or self.checker.ok


def run_failover_drill(
    config: FailoverConfig,
    tracer: Optional[Tracer] = None,
    trace_out: Optional[str] = None,
    emit_accounting: bool = True,
) -> FailoverOutcome:
    """Execute one failover drill end to end.

    With the default standalone mode (*tracer* unset), the drill records
    its own trace, emits the terminal ``run_completed`` accounting event
    and audits the stream with an :class:`InvariantChecker` configured
    for elections (``failover_bound`` = 2x the lease TTL -- the
    acceptance bound on takeover latency). When embedded in a soak
    scenario, pass the shared *tracer* and ``emit_accounting=False``;
    the caller then merges the returned jobs/leaks into its own
    accounting.
    """
    own_tracer = tracer is None
    if own_tracer:
        tracer = RecordingTracer()
    metrics = MetricsRegistry()
    store = KVStore()
    # Kubelets are not the controller: node registration and heartbeats go
    # through an unfenced API server and keep flowing during failovers.
    nodes = DrillNodes(APIServer(store), config.servers, config.node_lease_ttl)
    fleet = DrillFleet(config.seed, config.jobs, "ha", tracer)

    loops: List[ControlLoop] = []
    incarnation = 0

    def controller(start_step: int) -> ControlLoop:
        nonlocal incarnation
        name = f"ctrl-{incarnation}"
        incarnation += 1
        election = LeaderElection(
            store, name, ttl=config.lease_ttl, tracer=tracer, metrics=metrics
        )
        loop = ControlLoop(
            APIServer(store),
            make_scheduler(config.policy),
            tracer=tracer,
            metrics=metrics,
            start_step=start_step,
            election=election,
        )
        loops.append(loop)
        return loop

    now = 0.0
    active = controller(start_step=0)
    if active.standby_tick(now) is None:
        raise SimulationError("the bootstrap election must win a vacant seat")
    standby = controller(start_step=0)
    takeover_latencies: List[float] = []

    for wave in range(max(1, config.kills)):
        # -- the reign: leader drives, standby idles ------------------------------
        for _ in range(config.steps_before):
            nodes.heartbeat(now)
            if standby.standby_tick(now) is not None:
                raise SimulationError("standby won against a live leader")
            active.step(fleet.views(), progress=dict(fleet.progress))
            fleet.advance()
            now += 1.0
        # -- the kill -------------------------------------------------------------
        point = config.crash_point
        if point == CRASH_MID_STEP_DEPOSED:
            # Deposed mid-step: the lease is severed at t=now, so the
            # vacancy opens immediately and the reconcile writes are
            # fenced. The zombie then tries to drain -- fenced again.
            active.crash_points = CrashPointInjector([ControllerCrash(point)])
            nodes.heartbeat(now)
            standby.standby_tick(now)
            try:
                active.step(fleet.views(), progress=dict(fleet.progress))
                raise SimulationError("a severed leader's step must be fenced")
            except StaleLeaderError:
                pass
            try:
                active.drain(progress=dict(fleet.progress))
            except StaleLeaderError:
                pass  # the post-mortem write bounced, as it must
            lease_expiry = now
            now += 1.0
        elif point in RECONCILE_CRASH_POINTS:
            # Died mid-write with a torn intent; the lease was renewed at
            # step entry, so it lives another full TTL past the crash.
            # Reconcile crash points only fire on an actual rescale, so the
            # drill forces one: drop a victim job from the views (its
            # teardown fires the checkpoint/teardown points) and, if the
            # scripted point is a launch one, re-add it next step (the
            # relaunch fires it).
            active.controller.crash_points = CrashPointInjector(
                [ControllerCrash(point)]
            )
            victim = fleet.job_ids[wave % len(fleet.job_ids)]
            crashed = False
            for attempt in range(4):
                nodes.heartbeat(now)
                standby.standby_tick(now)
                step_views = [
                    view
                    for view in fleet.views()
                    if attempt % 2 == 1 or view.spec.job_id != victim
                ]
                try:
                    active.step(step_views, progress=dict(fleet.progress))
                except ControllerCrashed:
                    crashed = True
                    break
                fleet.advance()
                now += 1.0
            if not crashed:
                raise SimulationError(f"crash point {point!r} never fired")
            lease_expiry = now + config.lease_ttl
            now += 1.0
        else:
            # Silent death (and the election crash points, which script
            # the *successor*): the leader just stops; its last renewal
            # was its final step at now - 1.
            if point is not None:
                standby.crash_points = CrashPointInjector(
                    [ControllerCrash(point)]
                )
            lease_expiry = (now - 1.0) + config.lease_ttl
        # -- the takeover ---------------------------------------------------------
        recovered: Optional[Dict[str, float]] = None
        guard = now + 4.0 * config.lease_ttl + 8.0
        while recovered is None:
            if now > guard:
                raise SimulationError(
                    f"no takeover within {guard} steps (wave {wave})"
                )
            nodes.heartbeat(now)
            try:
                recovered = standby.standby_tick(now)
            except ControllerCrashed:
                # The successor died at its scripted election crash
                # point; a replacement candidate finishes the job. A
                # winner that died after_elected holds the seat until
                # its own (just-granted) lease lapses.
                if standby.role == "leader":
                    lease_expiry = now + config.lease_ttl
                standby = controller(start_step=int(now))
                recovered = None
            if recovered is None:
                now += 1.0
        fleet.restore(recovered)
        active = standby
        # First post-recovery schedule: this step completing is the far
        # edge of the takeover-latency window.
        active.step(fleet.views(), progress=dict(fleet.progress))
        takeover_latencies.append(now - lease_expiry)
        fleet.advance()
        now += 1.0
        standby = controller(start_step=int(now))

    # -- steady state under the final leader, then shutdown ----------------------
    for _ in range(config.steps_after):
        nodes.heartbeat(now)
        standby.standby_tick(now)
        active.step(fleet.views(), progress=dict(fleet.progress))
        fleet.advance()
        now += 1.0
    active.drain(progress=dict(fleet.progress))
    active.election.resign(now)

    # -- leak accounting (through the unfenced kubelet view) ----------------------
    leaks = collect_leaks(
        nodes, active.controller, elections=[loop.election for loop in loops]
    )
    fenced_writes = sum(
        getattr(loop.api.store, "fenced_writes", 0) for loop in loops
    )
    final_epoch = int(store.get(EPOCH_KEY) or 0)
    job_ids = fleet.job_ids

    checker = None
    report = None
    if emit_accounting:
        tracer.emit(
            EVENT_RUN_COMPLETED,
            now,
            finished=[],
            unfinished=job_ids,
            **leaks,
        )
    events = list(getattr(tracer, "events", []))
    if own_tracer:
        if trace_out:
            with open(trace_out, "w", encoding="utf8") as stream:
                for event in events:
                    stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        checker = InvariantChecker(
            CheckerConfig(
                require_accounting=True,
                strict_end=True,
                failover_bound=2.0 * config.lease_ttl,
            )
        )
        checker.observe_all(events)
        checker.finish()
        report = checker.report(
            extra={
                "drill": "failover",
                "seed": config.seed,
                "crash_point": config.crash_point,
                "kills": int(max(1, config.kills)),
                "lease_ttl": config.lease_ttl,
                "takeover_latencies": takeover_latencies,
                "fenced_writes": fenced_writes,
                "final_epoch": final_epoch,
            }
        )

    return FailoverOutcome(
        config=config,
        jobs=job_ids,
        takeover_latencies=takeover_latencies,
        fenced_writes=fenced_writes,
        final_epoch=final_epoch,
        **leaks,
        events=events,
        checker=checker,
        report=report,
    )
