"""The benchmark's workloads: seeded inputs, one measured run, output checks.

:data:`WORKLOADS` maps each name to a pair: ``setup(seed)`` generates the
jobs from the seed alone and builds the cluster or API server, and
``run(setup, recorder=None)`` drives the program once to the end, checks
its outputs and returns a :class:`RunResult`. The program receives only
the generated jobs; its own seed (the simulator's measurement noise) is
fixed, so a workload seed changes the inputs and nothing else.

Both loops are closed: one caller in one process, which hands the program
its next interval only after the previous one has returned.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.cluster import Cluster, cpu_mem
from repro.cluster.resources import ResourceVector
from repro.core.allocation import TaskAllocation
from repro.deploy import ControlLoop
from repro.k8s import APIServer, PodSpec
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import StepTimeModel, make_job
from repro.workloads.arrivals import (
    DATASET_DOWNSCALE,
    STATIC_REQUESTS,
    THRESHOLD_RANGE,
)
from repro.workloads.profiles import MODEL_ZOO

#: Scheduling interval, in simulated seconds, for all three workloads.
INTERVAL_S = 600.0
#: Every run must time at least this many intervals, so that at least ten
#: samples lie beyond its 90th percentile.
MIN_INTERVALS = 100


@dataclass
class RunResult:
    """What one measured run of a workload produced."""

    #: Seconds the run took at the reference CPU speed, excluding the
    #: benchmark's own checks and calibration.
    run_s: float
    #: Reference-speed seconds of each scheduling interval / loop step.
    intervals: List[float]
    #: How much slower than the reference the host ran (see SpeedGauge).
    slowdown: float
    avg_jct_s: float
    makespan_s: float
    #: Jobs finished by the end of the run / jobs submitted.
    completed_share: float
    #: Deterministic work done: jobs submitted and left unfinished
    #: (simulator), rescales attempted and rolled back or failed (deploy).
    attempted: int
    failed: int
    #: Output-check violations; empty when the run is correct.
    violations: List[str] = field(default_factory=list)
    #: Benchmark-side facts the per-layer metrics need (true job totals).
    truth: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.intervals) < MIN_INTERVALS:
            self.violations.append(
                f"only {len(self.intervals)} intervals; the workload needs "
                f"at least {MIN_INTERVALS} for its 90th percentile"
            )

    def fingerprint(self) -> Dict[str, float]:
        """The deterministic outcome: identical on every run of a seed."""
        return {
            "avg_jct_s": self.avg_jct_s,
            "makespan_s": self.makespan_s,
            "completed_share": self.completed_share,
            "intervals": len(self.intervals),
            "attempted": self.attempted,
            "failed": self.failed,
        }


# -- host speed -------------------------------------------------------------------
#: Host seconds one calibration slice takes at the reference CPU speed.
#: Every host time the benchmark reports is scaled to this speed.
REFERENCE_SLICE_S = 1.5e-3
_SLICE_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def calibration_slice() -> float:
    """Host seconds of a fixed piece of work that never touches the program.

    Small matrix products, list building and JSON encoding: the mix of
    interpreter, allocator and NumPy work the program itself does, so the
    slice slows down when the shared host slows the program down.
    """
    start = perf_counter()
    x = _SLICE_MATRIX
    for _ in range(100):
        x = (_SLICE_MATRIX @ x) * 1e-3 + _SLICE_MATRIX
        json.dumps({"row": [float(v) for v in x[0]]})
    return perf_counter() - start


class SpeedGauge:
    """Calibration slices interleaved with a run, and the speed they show.

    Dividing the run's host seconds by ``slowdown`` gives seconds at the
    reference speed: a host running the slice 1.3x slower than the
    reference gets its times divided by 1.3. The slices' own time is kept
    out of every measured time (and, in a traced run, recorded as
    ``obs.calibration`` spans so no layer is charged for it).
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.samples: List[float] = []

    def sample(self) -> None:
        with self.recorder.span("obs.calibration") if self.recorder else nullcontext():
            self.samples.append(calibration_slice())

    @property
    def slowdown(self) -> float:
        """Mean slice time over the reference: 1.0 at the reference speed."""
        return sum(self.samples) / len(self.samples) / REFERENCE_SLICE_S


# -- input generation -----------------------------------------------------------
def seeded_arrivals(rng, num_kinds, count):
    """The arrival order of a fixed job mix: ``[(kind, occurrence), ...]``.

    Job ``c`` of the mix is occurrence ``c // num_kinds`` of kind
    ``c % num_kinds``, so every seed submits exactly the same jobs. They
    arrive in blocks of one job per kind, occurrence by occurrence, and the
    seed shuffles the order inside each block. Seeds therefore differ in
    which jobs overlap, not in how much work arrives when, which keeps runs
    on different seeds comparable.
    """
    order = []
    for start in range(0, count, num_kinds):
        block = range(start, min(start + num_kinds, count))
        order.extend((block[i] % num_kinds, block[i] // num_kinds)
                     for i in rng.permutation(len(block)))
    return order


def table1_jobs(num_jobs, window, seed):
    """The §6.1 Table-1 recipe, stratified.

    Each model of the zoo appears equally often; its occurrences have
    convergence thresholds evenly spaced over the paper's range and
    alternate between synchronous and asynchronous training. One job
    arrives at the middle of each equal slot of *window*.
    """
    rng = np.random.default_rng([seed, 1])
    models = sorted(MODEL_ZOO)
    lo, hi = THRESHOLD_RANGE
    slot = window / num_jobs
    jobs = []
    for k, (kind, j) in enumerate(seeded_arrivals(rng, len(models), num_jobs)):
        model = models[kind]
        n = len(range(kind, num_jobs, len(models)))
        request = STATIC_REQUESTS.get(model, 4)
        jobs.append(
            make_job(
                model,
                mode="sync" if j % 2 == 0 else "async",
                job_id=f"job-{k:04d}-{model}",
                threshold=lo + (hi - lo) * (j + 0.5) / n,
                dataset_scale=DATASET_DOWNSCALE.get(model, 1.0),
                arrival_time=slot * (k + 0.5),
                requested_workers=request,
                requested_ps=request,
            )
        )
    return jobs


# -- simulator workloads --------------------------------------------------------
class IntervalClock:
    """Times every simulator interval and gauges the host between them.

    Passed as ``simulate(timeseries=...)``: the engine calls
    ``sample_registry`` once at the end of each interval, so the clock sees
    interval boundaries with no tracing switched on in the program. At each
    boundary it runs one calibration slice, outside the interval's time.
    """

    def __init__(self, gauge: "SpeedGauge"):
        self.gauge = gauge
        self.intervals: List[float] = []
        self.resumed = perf_counter()

    def sample_registry(self, registry, time) -> int:
        self.intervals.append(perf_counter() - self.resumed)
        self.gauge.sample()
        self.resumed = perf_counter()
        return 0


@dataclass
class SimSetup:
    cluster: Cluster
    scheduler: object
    jobs: list
    config: SimConfig


PAPER_SERVERS = 13
PAPER_JOBS = 45
PAPER_WINDOW_S = 112_500.0


def setup_paper_online(seed):
    """13 CPU servers, a Table-1 trace, the default online §3 estimators."""
    return SimSetup(
        cluster=Cluster.homogeneous(PAPER_SERVERS, cpu_mem(16, 80)),
        scheduler=make_scheduler("optimus"),
        jobs=table1_jobs(PAPER_JOBS, PAPER_WINDOW_S, seed),
        config=SimConfig(seed=0),
    )


FLEET_GPUS = 400
FLEET_JOBS = 800
FLEET_WINDOW_S = 66_000.0
FLEET_NODE = ResourceVector({"cpu": 16, "memory": 80, "gpu": 4})
FLEET_WORKER = ResourceVector({"cpu": 2, "memory": 4, "gpu": 1})
FLEET_PS = ResourceVector({"cpu": 1, "memory": 2})
#: The fast-converging models of the repository's 1,000-GPU scale lane.
FLEET_MODELS = ("cnn-rand", "dssm", "kaggle-ndsb")


def fleet_jobs(num_jobs, window, seed):
    """GPU jobs of the scale lane's mix, one per equal slot of *window*."""
    rng = np.random.default_rng([seed, 2])
    kinds = [(m, mode) for m in FLEET_MODELS for mode in ("sync", "async")]
    slot = window / num_jobs
    return [
        make_job(
            kinds[kind][0],
            mode=kinds[kind][1],
            job_id=f"fleet-{k:05d}",
            arrival_time=slot * (k + 0.5),
            worker_demand=FLEET_WORKER,
            ps_demand=FLEET_PS,
        )
        for k, (kind, _) in enumerate(seeded_arrivals(rng, len(kinds), num_jobs))
    ]


def setup_fleet_oracle(seed):
    """A 400-GPU fleet, oracle estimators, cost-aware rescaling."""
    return SimSetup(
        cluster=Cluster.homogeneous(FLEET_GPUS // 4, FLEET_NODE),
        scheduler=make_scheduler("optimus", rescale_threshold=1.0),
        jobs=fleet_jobs(FLEET_JOBS, FLEET_WINDOW_S, seed),
        config=SimConfig(
            seed=0,
            estimator_mode="oracle",
            max_time=FLEET_WINDOW_S + 2 * 86_400.0,
        ),
    )


def run_simulation(setup: SimSetup, recorder=None) -> RunResult:
    """Simulate *setup* to the end and check the result."""
    gauge = SpeedGauge(recorder)
    start = perf_counter()
    with recorder.span("sim") if recorder else nullcontext():
        clock = IntervalClock(gauge)
        result = simulate(
            setup.cluster, setup.scheduler, setup.jobs, setup.config,
            timeseries=clock,
        )
    host_s = perf_counter() - start - sum(gauge.samples)
    slowdown = gauge.slowdown

    summary = result.summary()
    records = list(result.jobs.values())
    finished = [r for r in records if r.completion_time is not None]
    violations = check_simulation(setup, result, summary, finished)
    first = min(r.arrival_time for r in records)
    return RunResult(
        run_s=host_s / slowdown,
        intervals=[t / slowdown for t in clock.intervals],
        slowdown=slowdown,
        avg_jct_s=summary["average_jct"],
        makespan_s=summary["makespan"] if len(finished) == len(records) else (
            max(r.completion_time for r in finished) - first
        ),
        completed_share=len(finished) / len(records),
        attempted=len(records),
        failed=len(records) - len(finished),
        violations=violations,
        truth={r.job_id: r.total_steps for r in finished},
    )


def check_simulation(setup, result, summary, finished) -> List[str]:
    """Capacity never exceeded; JCT and makespan agree with the job records."""
    violations = []
    capacity = setup.cluster.total_capacity["cpu"]
    for slot in result.timeline:
        if slot.allocated_cpu > capacity + 1e-9:
            violations.append(
                f"t={slot.time:.0f}: {slot.allocated_cpu} CPUs allocated "
                f"> capacity {capacity}"
            )
    if not finished:
        return violations + ["no job finished"]
    avg = sum(r.completion_time - r.arrival_time for r in finished) / len(finished)
    if not math.isclose(avg, summary["average_jct"], rel_tol=1e-9):
        violations.append(
            f"average JCT {summary['average_jct']} != {avg} from job records"
        )
    if len(finished) == len(result.jobs):
        records = result.jobs.values()
        span = max(r.completion_time for r in records) - min(
            r.arrival_time for r in records
        )
        if not math.isclose(span, summary["makespan"], rel_tol=1e-9):
            violations.append(
                f"makespan {summary['makespan']} != {span} from job records"
            )
    return violations


# -- deploy workload ------------------------------------------------------------
DEPLOY_NODES = 26
DEPLOY_JOBS = 50
DEPLOY_ARRIVAL_STEPS = 100
DEPLOY_MAX_STEPS = 400
DEPLOY_LEASE_TTL = 3.0
#: Pods of other tenants (node agents, log shippers) bound on every node.
#: The loop must carry them as occupied capacity and never touch them; every
#: full pod listing scans them too.
TENANT_PODS_PER_NODE = 3
TENANT_POD_DEMAND = cpu_mem(0.25, 0.5)
#: Each job needs between these many intervals of work at its owner's
#: static configuration (workers = parameter servers, Table-1 requests).
DEPLOY_WORK_INTERVALS = (6, 30)


@dataclass
class DeployJob:
    spec: object
    truth: StepTimeModel
    arrival_step: int
    total_steps: float
    progress: float = 0.0
    running: tuple = (0, 0)  # (workers, ps) bound after the last step
    completion_s: float = None  # simulated seconds; None while running


@dataclass
class DeploySetup:
    api: APIServer
    loop: ControlLoop
    nodes: List[str]
    jobs: List[DeployJob]


def deploy_jobs(seed):
    """Table-1 models in both modes; each job needs a fixed amount of work.

    Job ``c`` of the mix needs the ``(7 * c) % DEPLOY_JOBS``-th of
    ``DEPLOY_JOBS`` work levels spread evenly over
    :data:`DEPLOY_WORK_INTERVALS`, so every kind gets short and long jobs.
    """
    rng = np.random.default_rng([seed, 3])
    kinds = [(m, mode) for m in sorted(MODEL_ZOO) for mode in ("sync", "async")]
    lo, hi = DEPLOY_WORK_INTERVALS
    slot = DEPLOY_ARRIVAL_STEPS / DEPLOY_JOBS
    jobs = []
    for k, (kind, j) in enumerate(seeded_arrivals(rng, len(kinds), DEPLOY_JOBS)):
        model, mode = kinds[kind]
        level = (7 * (kind + j * len(kinds))) % DEPLOY_JOBS
        spec = make_job(model, mode=mode, job_id=f"job-{k:03d}")
        truth = StepTimeModel(spec.profile, mode)
        request = STATIC_REQUESTS.get(model, 4)
        work = lo + (hi - lo) * (level + 0.5) / DEPLOY_JOBS
        jobs.append(
            DeployJob(
                spec=spec,
                truth=truth,
                arrival_step=int(slot * (k + 0.5)),
                total_steps=truth.speed(request, request) * INTERVAL_S * work,
            )
        )
    return jobs


def setup_deploy_churn(seed):
    """26 leased nodes behind the in-process API server, 50 arriving jobs."""
    api = APIServer()
    nodes = [f"n{i:02d}" for i in range(DEPLOY_NODES)]
    for name in nodes:
        api.register_node(name, cpu_mem(16, 64), lease_ttl=DEPLOY_LEASE_TTL, now=0.0)
        for index in range(TENANT_PODS_PER_NODE):
            pod = PodSpec(
                name=f"tenant/{name}-{index}", job_id=f"tenant-{index}",
                role="worker", index=index, demand=TENANT_POD_DEMAND,
            )
            api.create_pod(pod)
            api.bind_pod(pod.name, name)
    loop = ControlLoop(api, make_scheduler("optimus"))
    return DeploySetup(api=api, loop=loop, nodes=nodes, jobs=deploy_jobs(seed))


def run_deploy(setup: DeploySetup, recorder=None) -> RunResult:
    """Drive the control loop until every job has finished.

    After each step the benchmark reads the pods back (untimed, untraced),
    checks them, and advances every job at the ground-truth speed of the
    pods it really has -- a rolled-back rescale runs its old pods.
    """
    api, loop, jobs = setup.api, setup.loop, setup.jobs
    gauge = SpeedGauge(recorder)
    intervals: List[float] = []
    violations: List[str] = []
    attempted = rolled_back = 0
    checks_s = 0.0
    start = perf_counter()
    with recorder.span("deploy") if recorder else nullcontext():
        for step in range(DEPLOY_MAX_STEPS):
            if all(j.completion_s is not None for j in jobs):
                break
            active = [
                j for j in jobs if j.arrival_step <= step and j.completion_s is None
            ]
            now = float(loop.step_index)
            for name in setup.nodes:
                loop.heartbeat(name, now)
            views = [
                JobView(
                    spec=j.spec,
                    remaining_steps=j.total_steps - j.progress,
                    speed=j.truth.speed,
                    observation_count=100,
                    progress=j.progress / j.total_steps,
                    current_allocation=TaskAllocation(*j.running),
                )
                for j in active
            ]
            t0 = perf_counter()
            report = loop.step(views, progress={j.spec.job_id: j.progress for j in active})
            intervals.append(perf_counter() - t0)
            gauge.sample()
            done = report.reconcile
            attempted += len(done.jobs_scaled) + len(done.jobs_rolled_back)
            attempted += len(done.jobs_failed)
            rolled_back += len(done.jobs_rolled_back) + len(done.jobs_failed)

            t0 = perf_counter()
            with recorder.paused() if recorder else nullcontext():
                pods, nodes = api.list_pods(), api.list_nodes()
            violations += check_deploy(pods, nodes, active, step)
            checks_s += perf_counter() - t0
            running = {}
            for pod in pods:
                counts = running.setdefault(pod.job_id, [0, 0])
                counts[pod.role != "worker"] += 1
            for j in active:
                j.running = tuple(running.get(j.spec.job_id, (0, 0)))
                workers, ps = j.running
                if workers < 1 or ps < 1:
                    continue
                advance = j.truth.speed(ps, workers) * INTERVAL_S
                left = j.total_steps - j.progress
                if advance >= left:
                    j.progress = j.total_steps
                    j.completion_s = (step + left / advance) * INTERVAL_S
                else:
                    j.progress += advance
    slowdown = gauge.slowdown
    run_s = (perf_counter() - start - checks_s - sum(gauge.samples)) / slowdown
    intervals = [t / slowdown for t in intervals]

    finished = [j for j in jobs if j.completion_s is not None]
    if not finished:
        violations.append(f"no job finished in {DEPLOY_MAX_STEPS} steps")
        return RunResult(
            run_s, intervals, slowdown, 0.0, 0.0, 0.0, attempted, rolled_back, violations
        )
    arrival = {j.spec.job_id: j.arrival_step * INTERVAL_S for j in jobs}
    jcts = [j.completion_s - arrival[j.spec.job_id] for j in finished]
    return RunResult(
        run_s=run_s,
        intervals=intervals,
        slowdown=slowdown,
        avg_jct_s=sum(jcts) / len(jcts),
        makespan_s=max(j.completion_s for j in finished) - min(arrival.values()),
        completed_share=len(finished) / len(jobs),
        attempted=attempted,
        failed=rolled_back,
        violations=violations,
    )


def check_deploy(pods, nodes, active, step) -> List[str]:
    """Node bookkeeping matches the bound pods; no orphaned or stranded pod.

    A pod is orphaned when it belongs neither to an active job nor to the
    other tenants; stranded when it is unbound or on a cordoned node.
    """
    violations = []
    live = {j.spec.job_id for j in active}
    by_name = {node.name: node for node in nodes}
    bound = {name: ResourceVector() for name in by_name}
    for pod in pods:
        if pod.job_id not in live and not pod.job_id.startswith("tenant-"):
            violations.append(f"step {step}: orphaned pod {pod.name}")
        if pod.node not in by_name:
            violations.append(f"step {step}: pod {pod.name} on node {pod.node!r}")
            continue
        if by_name[pod.node].cordoned:
            violations.append(f"step {step}: pod {pod.name} on cordoned {pod.node}")
        bound[pod.node] = bound[pod.node] + pod.demand
    for name, node in by_name.items():
        keys = set(dict(node.allocated.items())) | set(dict(bound[name].items()))
        if any(abs(node.allocated.get(k) - bound[name].get(k)) > 1e-9 for k in keys):
            violations.append(
                f"step {step}: node {name} allocated {node.allocated} "
                f"!= bound pods {bound[name]}"
            )
    return violations


#: name -> (build inputs from a seed, run them once)
WORKLOADS = {
    "paper-online": (setup_paper_online, run_simulation),
    "fleet-oracle": (setup_fleet_oracle, run_simulation),
    "deploy-churn": (setup_deploy_churn, run_deploy),
}
