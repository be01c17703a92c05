"""Marginal-gain resource allocation (§4.1).

The exact problem (5)-(8) -- minimise the summed estimated completion times
``Q_j / f_j(p_j, w_j)`` subject to cluster capacity -- is a non-convex
integer program, so Optimus uses a greedy heuristic:

1. give every active job 1 worker + 1 parameter server (anti-starvation);
2. repeatedly grant one task (worker *or* parameter server, whichever helps
   more) to the job with the largest **marginal gain**: the reduction in its
   estimated completion time per unit of the added task's dominant resource
   (Eqn 9);
3. stop when resources run out or every job's marginal gain is non-positive.

Jobs in their "beginning state" (few observations, large prediction error)
can have their gain multiplied by a priority factor < 1, mildly deferring
them until their estimates firm up (end of §4.1).

The implementation keeps gains in a lazy max-heap with version stamps, so an
allocation round over ``J`` jobs and ``T`` granted tasks costs
``O((J + T) log J)`` speed-function evaluations -- this is what makes the
Fig.-12 scalability result achievable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.common.errors import SchedulingError
from repro.obs.ledger import active_ledger
from repro.obs.registry import active_registry

#: f(p, w) -> steps/second.
SpeedFn = Callable[[int, int], float]


class TaskAllocation(NamedTuple):
    """Numbers of tasks granted to one job."""

    workers: int
    ps: int

    @property
    def total(self) -> int:
        return self.workers + self.ps


@dataclass
class AllocationRequest:
    """Everything the allocator needs to know about one active job.

    ``remaining_work`` is the predicted number of steps left (the ``Q_j`` of
    §4.1); ``speed`` is the job's *fitted* speed function. ``priority``
    scales the marginal gain (1.0 = neutral; §4.1 suggests e.g. 0.95 for
    jobs whose predictions are still unreliable).
    """

    job_id: str
    remaining_work: float
    speed: SpeedFn
    worker_demand: ResourceVector
    ps_demand: ResourceVector
    priority: float = 1.0
    max_workers: int = 100
    max_ps: int = 100

    def __post_init__(self) -> None:
        if self.remaining_work < 0:
            raise SchedulingError("remaining_work must be non-negative")
        if not 0 < self.priority <= 1:
            raise SchedulingError("priority must be in (0, 1]")
        if self.max_workers < 1 or self.max_ps < 1:
            raise SchedulingError("task caps must be >= 1")


@dataclass(frozen=True)
class AllocationResult:
    """The outcome of one allocation round."""

    allocations: Dict[str, TaskAllocation]
    #: Jobs that could not receive even the 1+1 starter allocation.
    starved: Tuple[str, ...]
    #: Why the greedy loop stopped: "capacity" or "gains".
    stop_reason: str
    #: Resources left unallocated.
    leftover: ResourceVector


def _safe_speed(fn: SpeedFn, p: int, w: int) -> float:
    """Evaluate a fitted speed function defensively (fits can degenerate)."""
    try:
        value = fn(p, w)
    except Exception:
        return 0.0
    if value is None or value <= 0 or value != value:  # NaN check
        return 0.0
    return float(value)


def _completion_time(request: AllocationRequest, p: int, w: int) -> float:
    speed = _safe_speed(request.speed, p, w)
    if speed <= 0:
        return float("inf")
    return request.remaining_work / speed


class _BatchEvaluator:
    """Vectorized completion-time evaluation for one request's speed function.

    Candidate ``(p, w)`` configurations are evaluated in a single numpy call
    when the speed function supports it -- either through a ``predict_many``
    attribute (fitted models) or by accepting ndarray arguments elementwise.
    The first failure (exception, or a non-elementwise result shape) flips
    the evaluator to per-config scalar calls permanently, so arbitrary
    Python speed functions keep the exact :func:`_safe_speed` semantics.
    """

    __slots__ = ("request", "_vectorized")

    def __init__(self, request: AllocationRequest) -> None:
        self.request = request
        self._vectorized = True

    def completion_times(self, configs: Sequence[Tuple[int, int]]) -> List[float]:
        request = self.request
        if self._vectorized and len(configs) > 1:
            fn = getattr(request.speed, "predict_many", None) or request.speed
            ps = np.array([c[0] for c in configs], dtype=float)
            ws = np.array([c[1] for c in configs], dtype=float)
            try:
                speeds = np.asarray(fn(ps, ws), dtype=float)
                if speeds.shape != ps.shape:
                    raise TypeError("speed function is not elementwise")
            except Exception:
                self._vectorized = False
            else:
                work = request.remaining_work
                return [
                    work / value if value > 0 and value == value else float("inf")
                    for value in speeds.tolist()
                ]
        return [_completion_time(request, p, w) for p, w in configs]


class WeightedSpeed:
    """A speed function scaled by an elementwise ``weight(p, w)`` factor.

    Policies that rank configurations by something other than raw speed
    (e.g. the Pollux-style goodput allocator, which discounts speed by
    statistical efficiency) wrap the fitted speed function in one of these
    and feed it straight to :func:`allocate`. The wrapper preserves the
    vectorized fast path: when the base function (or its ``predict_many``)
    accepts ndarrays, so does this one, so :class:`_BatchEvaluator` still
    scores both +1-task candidates of a grant in a single numpy call.

    ``weight`` must accept scalars *and* ndarrays elementwise and return
    strictly finite values; non-positive products simply make the
    configuration unattractive (``_safe_speed`` maps them to 0).
    """

    __slots__ = ("base", "weight")

    def __init__(self, base: SpeedFn, weight: Callable) -> None:
        self.base = base
        self.weight = weight

    def __call__(self, p: int, w: int) -> float:
        return self.base(p, w) * self.weight(p, w)

    def predict_many(self, ps, ws):
        fn = getattr(self.base, "predict_many", None) or self.base
        speeds = np.asarray(fn(ps, ws), dtype=float)
        if speeds.shape != np.shape(ps):
            # Same contract as _BatchEvaluator: a non-elementwise base flips
            # the evaluator to per-config scalar calls.
            raise TypeError("base speed function is not elementwise")
        return speeds * self.weight(ps, ws)


def estimated_time(request: AllocationRequest, allocation: TaskAllocation) -> float:
    """Estimated completion time of *request* under *allocation* (seconds)."""
    if allocation.workers < 1 or allocation.ps < 1:
        return float("inf")
    return _completion_time(request, allocation.ps, allocation.workers)


def _dominant_amount(demand: ResourceVector, capacity: ResourceVector) -> float:
    """Dominant-resource *share* of one task against the cluster capacity.

    Eqn 9 divides the time reduction "by the amount of dominant resource";
    we use the capacity-normalised share so that gains stay comparable when
    workers and parameter servers dominate in different resource types
    (e.g. GPU workers vs. CPU parameter servers).
    """
    share = demand.dominant_share(capacity)
    return share if share > 0 else float("inf")


def _gain_from_times(
    request: AllocationRequest,
    alloc: TaskAllocation,
    base: float,
    t_worker: float,
    t_ps: float,
    dom_worker: float,
    dom_ps: float,
) -> Tuple[float, str]:
    """Best marginal gain given precomputed completion times (Eqn 9).

    ``base`` is the completion time under *alloc*; ``t_worker``/``t_ps`` are
    the times with one more worker / parameter server; ``dom_*`` the
    capacity-normalised dominant shares of one task of each kind.
    """
    gain_worker = -float("inf")
    gain_ps = -float("inf")
    if alloc.workers < request.max_workers:
        if base != float("inf") or t_worker != float("inf"):
            reduction = (base - t_worker) if base != float("inf") else 0.0
            gain_worker = reduction / dom_worker
    if alloc.ps < request.max_ps:
        if base != float("inf") or t_ps != float("inf"):
            reduction = (base - t_ps) if base != float("inf") else 0.0
            gain_ps = reduction / dom_ps
    if gain_worker >= gain_ps:
        return gain_worker * request.priority, "worker"
    return gain_ps * request.priority, "ps"


def _marginal_gain(
    request: AllocationRequest,
    alloc: TaskAllocation,
    capacity: ResourceVector,
) -> Tuple[float, str]:
    """Best marginal gain for the job and the task kind achieving it (Eqn 9)."""
    base = _completion_time(request, alloc.ps, alloc.workers)
    t_worker = _completion_time(request, alloc.ps, alloc.workers + 1)
    t_ps = _completion_time(request, alloc.ps + 1, alloc.workers)
    return _gain_from_times(
        request,
        alloc,
        base,
        t_worker,
        t_ps,
        _dominant_amount(request.worker_demand, capacity),
        _dominant_amount(request.ps_demand, capacity),
    )


def allocate(
    requests: Iterable[AllocationRequest],
    capacity: ResourceVector,
) -> AllocationResult:
    """Run one §4.1 allocation round over the active jobs.

    Parameters
    ----------
    requests:
        Active jobs, in submission order (starter allocations are handed out
        in this order when capacity is scarce).
    capacity:
        Total cluster capacity (constraint (7) is aggregate; fragmentation
        is the placement algorithm's problem, §4.2).

    Returns
    -------
    AllocationResult
        Jobs that could not get the 1+1 starter allocation are listed in
        ``starved`` and receive no tasks (they will be retried next
        interval, §4.2's pausing behaviour).
    """
    requests = list(requests)
    seen = set()
    for request in requests:
        if request.job_id in seen:
            raise SchedulingError(f"duplicate job id {request.job_id!r}")
        seen.add(request.job_id)

    ledger = active_ledger()
    if ledger:
        ledger.begin_round()

    # Capacity accounting on plain dicts: ``fits``/``consume`` run once per
    # heap pop and per starter, so avoiding a ResourceVector allocation per
    # check matters at fleet scale.
    used: Dict[str, float] = {}
    cap = dict(capacity.items())
    allocations: Dict[str, TaskAllocation] = {}
    starved: List[str] = []
    active: Dict[str, AllocationRequest] = {}

    def fits(demand: ResourceVector) -> bool:
        for name, value in demand.items():
            if used.get(name, 0.0) + value > cap.get(name, 0.0) + 1e-9:
                return False
        return True

    def consume(demand: ResourceVector) -> None:
        for name, value in demand.items():
            used[name] = used.get(name, 0.0) + value

    # Phase 1: anti-starvation starter allocations.
    for request in requests:
        starter = request.worker_demand + request.ps_demand
        if fits(starter):
            consume(starter)
            allocations[request.job_id] = TaskAllocation(workers=1, ps=1)
            active[request.job_id] = request
        else:
            starved.append(request.job_id)
            if ledger:
                ledger.record_denial(
                    request.job_id, "capacity_exhausted", stage="starter"
                )

    # Phase 2: greedy marginal-gain grants through a lazy max-heap. Heap
    # entries carry the candidate completion times, so a grant reuses the
    # already-evaluated time as the job's new base instead of re-deriving
    # it -- only the two +1-task candidates of the granted job are
    # recomputed (in one vectorized call when the speed function allows).
    counter = itertools.count()
    versions: Dict[str, int] = {job_id: 0 for job_id in active}
    heap: List[Tuple[float, int, str, str, int, float, float]] = []
    evaluators = {job_id: _BatchEvaluator(req) for job_id, req in active.items()}
    dominants = {
        job_id: (
            _dominant_amount(req.worker_demand, capacity),
            _dominant_amount(req.ps_demand, capacity),
        )
        for job_id, req in active.items()
    }
    base_times: Dict[str, float] = {}

    def push(job_id: str) -> None:
        request = active[job_id]
        alloc = allocations[job_id]
        base = base_times[job_id]
        t_worker, t_ps = evaluators[job_id].completion_times(
            [(alloc.ps, alloc.workers + 1), (alloc.ps + 1, alloc.workers)]
        )
        dom_worker, dom_ps = dominants[job_id]
        gain, kind = _gain_from_times(
            request, alloc, base, t_worker, t_ps, dom_worker, dom_ps
        )
        if gain > 0 and gain != float("inf"):
            heapq.heappush(
                heap,
                (-gain, next(counter), job_id, kind, versions[job_id], t_worker, t_ps),
            )
        elif ledger:
            # Non-positive (or degenerate infinite) marginal gain: the job
            # stops bidding voluntarily. Jobs at their task caps land here
            # too (their gain is -inf by construction).
            ledger.record_denial(
                job_id,
                "converged_yield",
                workers=alloc.workers,
                ps=alloc.ps,
                gain=gain if gain == gain and abs(gain) != float("inf") else None,
            )

    for job_id in active:
        alloc = allocations[job_id]
        base_times[job_id] = evaluators[job_id].completion_times(
            [(alloc.ps, alloc.workers)]
        )[0]
        push(job_id)

    granted = 0
    while heap:
        neg_gain, _, job_id, kind, version, t_worker, t_ps = heapq.heappop(heap)
        if versions[job_id] != version:
            continue  # stale entry
        request = active[job_id]
        alloc = allocations[job_id]
        demand = request.worker_demand if kind == "worker" else request.ps_demand
        if not fits(demand):
            # Try the other task kind before giving up on this job.
            other = request.ps_demand if kind == "worker" else request.worker_demand
            if kind == "worker" and alloc.ps < request.max_ps and fits(other):
                kind, demand = "ps", other
            elif kind == "ps" and alloc.workers < request.max_workers and fits(other):
                kind, demand = "worker", other
            else:
                # Fires at most once per job per round: the job is not
                # re-pushed, and its version stamp kills stale entries.
                if ledger:
                    ledger.record_denial(
                        job_id,
                        "capacity_exhausted",
                        stage="grow",
                        workers=alloc.workers,
                        ps=alloc.ps,
                    )
                continue  # job can't grow; others may still fit
        consume(demand)
        if kind == "worker":
            alloc = TaskAllocation(alloc.workers + 1, alloc.ps)
            base_times[job_id] = t_worker
        else:
            alloc = TaskAllocation(alloc.workers, alloc.ps + 1)
            base_times[job_id] = t_ps
        allocations[job_id] = alloc
        versions[job_id] += 1
        granted += 1
        if ledger:
            # Peek the next-best bidder. Discarding stale entries here is
            # amortized-free: the pop loop would skip them anyway.
            while heap and versions[heap[0][2]] != heap[0][4]:
                heapq.heappop(heap)
            gain = -neg_gain
            runner_up = heap[0][2] if heap else None
            runner_gain = -heap[0][0] if heap else None
            ledger.record_grant(
                job_id,
                kind,
                gain,
                alloc.workers,
                alloc.ps,
                runner_up=runner_up,
                runner_up_gap=(
                    gain - runner_gain if runner_gain is not None else None
                ),
            )
        push(job_id)

    # Heap drained: either gains went non-positive or nothing else fit.
    smallest = min(
        (
            min(
                r.worker_demand.dominant_share(capacity),
                r.ps_demand.dominant_share(capacity),
            )
            for r in active.values()
        ),
        default=0.0,
    )
    any_fits = any(
        fits(r.worker_demand) or fits(r.ps_demand) for r in active.values()
    )
    stop_reason = "gains" if any_fits and smallest > 0 else "capacity"

    if ledger:
        ledger.end_round()

    metrics = active_registry()
    if metrics:
        metrics.counter("allocation.rounds").inc()
        metrics.counter("allocation.grants").inc(float(granted))
        metrics.counter("allocation.starved").inc(float(len(starved)))
        metrics.counter(f"allocation.stop.{stop_reason}").inc()
        metrics.gauge("allocation.last_jobs").set(float(len(requests)))

    return AllocationResult(
        allocations=allocations,
        starved=tuple(starved),
        stop_reason=stop_reason,
        leftover=capacity - ResourceVector(used),
    )
