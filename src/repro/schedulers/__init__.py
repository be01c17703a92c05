"""Schedulers: Optimus, the paper's baselines and ablation hybrids.

Importing this package loads every built-in policy module, so all of them
self-register with :mod:`repro.schedulers.registry` -- resolve them by name
through :func:`make_scheduler` / :func:`resolve_scheduler`.
"""

from repro.schedulers.base import JobView, Scheduler, SchedulingDecision
from repro.schedulers.composite import (
    CompositeScheduler,
    DRFScheduler,
    FIFOScheduler,
    OptimusScheduler,
    SRTFScheduler,
    TetrisScheduler,
    make_scheduler,
)
from repro.schedulers.goodput import GoodputScheduler, goodput_allocation
from repro.schedulers.oasis import OasisScheduler, oasis_allocation
from repro.schedulers.policies import (
    ALLOCATION_POLICIES,
    PLACEMENT_POLICIES,
    drf_allocation,
    fifo_allocation,
    optimus_allocation,
    optimus_placement,
    pack_placement,
    spread_placement,
    srtf_allocation,
    tetris_allocation,
)
from repro.schedulers.registry import (
    ALLOCATION_REGISTRY,
    PLACEMENT_REGISTRY,
    SCHEDULER_REGISTRY,
    available_policies,
    register_allocation,
    register_placement,
    register_scheduler,
    resolve_allocation,
    resolve_placement,
    resolve_scheduler,
)

__all__ = [
    "Scheduler",
    "JobView",
    "SchedulingDecision",
    "CompositeScheduler",
    "OptimusScheduler",
    "DRFScheduler",
    "TetrisScheduler",
    "FIFOScheduler",
    "SRTFScheduler",
    "GoodputScheduler",
    "OasisScheduler",
    "make_scheduler",
    "ALLOCATION_POLICIES",
    "PLACEMENT_POLICIES",
    "ALLOCATION_REGISTRY",
    "PLACEMENT_REGISTRY",
    "SCHEDULER_REGISTRY",
    "available_policies",
    "register_scheduler",
    "register_allocation",
    "register_placement",
    "resolve_scheduler",
    "resolve_allocation",
    "resolve_placement",
    "optimus_allocation",
    "drf_allocation",
    "tetris_allocation",
    "fifo_allocation",
    "srtf_allocation",
    "goodput_allocation",
    "oasis_allocation",
    "optimus_placement",
    "spread_placement",
    "pack_placement",
]
