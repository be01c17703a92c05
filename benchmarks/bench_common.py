"""Shared plumbing for the per-figure/per-table benchmarks.

Every bench regenerates one table or figure of the paper's evaluation and

* asserts the *shape* the paper reports (who wins, rough factors,
  crossovers) -- absolute numbers come from our simulator, not the authors'
  testbed, and are not expected to match;
* writes a human-readable paper-vs-measured report under
  ``benchmarks/results/`` (and prints it, visible with ``pytest -s``).

Run everything with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

from repro.cluster import Cluster, cpu_mem
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, SimulationResult, simulate
from repro.workloads import uniform_arrivals

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The paper's testbed scale: 13 servers, 9 jobs arriving in [0, 12000] s.
PAPER_NUM_SERVERS = 13
PAPER_NUM_JOBS = 9
PAPER_ARRIVAL_WINDOW = 12_000.0

#: Fast-converging Table-1 models, used when smoke mode shrinks workloads.
SMOKE_MODELS = ["cnn-rand", "dssm", "kaggle-ndsb"]


def smoke_mode() -> bool:
    """True when ``BENCH_SMOKE=1``: shrink every workload to smoke size.

    Smoke runs (CI's benchmark-smoke job, ``benchmarks/smoke.py``) only
    check that each bench still *executes* end to end and produces a
    non-empty result; the paper-shape assertions in the ``test_*``
    wrappers are not expected to hold at smoke scale.
    """
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def paper_cluster() -> Cluster:
    """A 13-server cluster with the standard 16-CPU/80-GB shape."""
    return Cluster.homogeneous(PAPER_NUM_SERVERS, cpu_mem(16, 80))


def paper_workload(seed: int = 42):
    """The §6.1 workload: 9 random Table-1 jobs over a 12 000 s window.

    In smoke mode this shrinks to 3 fast jobs over a 2 000 s window.
    """
    if smoke_mode():
        return uniform_arrivals(
            num_jobs=3, window=2_000.0, seed=seed, models=SMOKE_MODELS
        )
    return uniform_arrivals(
        num_jobs=PAPER_NUM_JOBS, window=PAPER_ARRIVAL_WINDOW, seed=seed
    )


def run_scheduler(
    name: str,
    jobs=None,
    seed: int = 7,
    estimator_mode: str = "online",
    **config_kwargs,
) -> SimulationResult:
    """One simulation of *name* over the paper workload."""
    if jobs is None:
        jobs = paper_workload()
    if smoke_mode():
        config_kwargs.setdefault("max_time", 2 * 86400.0)
    config = SimConfig(seed=seed, estimator_mode=estimator_mode, **config_kwargs)
    return simulate(paper_cluster(), make_scheduler(name), jobs, config)


def report(name: str, lines: Iterable[str]) -> str:
    """Print a bench report and persist it under ``benchmarks/results/``."""
    text = "\n".join(["=" * 72, name, "=" * 72, *lines, ""])
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    return text


def phase_p95_ms(registry, path: str) -> float:
    """p95 in ms of the ``phase.<path>`` histogram, e.g. ``interval/schedule/place``.

    Raises ``LookupError`` when the histogram saw no observation:
    ``MetricsRegistry.histogram`` creates a missing name on first read, so
    a stale path would otherwise report 0.0 and pass a lower-is-better gate.
    """
    histogram = registry.histogram(f"phase.{path}")
    if not histogram.count:
        raise LookupError(f"phase.{path} has no observations")
    return round(1000.0 * histogram.quantile(0.95), 4)


def normalised_row(results: Dict[str, SimulationResult]) -> Dict[str, Dict[str, float]]:
    """JCT/makespan of each scheduler relative to Optimus (Fig-11 style)."""
    base_jct = results["optimus"].average_jct
    base_mk = results["optimus"].makespan
    return {
        name: {
            "jct": result.average_jct / base_jct,
            "makespan": result.makespan / base_mk,
        }
        for name, result in results.items()
    }
