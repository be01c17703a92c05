"""Nested, timed phases: the one instrumentation primitive.

Optimus makes one decision per scheduling interval -- fit the §3 models,
allocate (§4.1), place (§4.2), then rescale (§5.4) -- and every question
about where interval time goes is answered by one mechanism. A
:class:`Phases` keeps a stack of open phases; ``with
phases.phase("allocate"):`` opens a child of the innermost open phase.
Each phase has a *path*, the names from its root joined by ``/``
(``interval/schedule/allocate``). When a phase closes it

* emits a ``span`` event (``span_id``, ``parent_id``, ``name``,
  ``duration`` and the phase's attributes) on the attached tracer, so one
  trace file carries both the decision events and the causal tree, which
  :func:`repro.obs.summarize.span_tree` rebuilds offline;
* observes the ``phase.<path>`` histogram of the attached registry;
* adds to per-path totals, whose :meth:`Phases.summary` becomes
  ``SimulationResult.phase_timings``.

Both drivers open the same tree::

    interval | step
      fit | sweep
      snapshot
      schedule
        allocate
        place
      progress            (simulator)
        rescale
      reconcile           (deploy loop)
        checkpoint, teardown, launch

Recovery opens a separate ``replay_intents`` root. A phase's *self time*
is its total minus its children's totals; the root's self time is the
interval time no phase accounts for. Phases close in a ``finally``
clause, so a crash point firing mid-reconcile still closes and emits
every open phase before the exception escapes.

Like every ``repro.obs`` sink, the disabled twin (:data:`NULL_PHASES`) is
falsy and free: ``phase()`` returns one shared no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import EVENT_SPAN, NULL_TRACER, Tracer


class Phase:
    """One open (then closed) node of the phase tree."""

    __slots__ = ("span_id", "parent_id", "name", "path", "attrs", "start", "duration")

    def __init__(
        self,
        span_id: int,
        parent: Optional["Phase"],
        name: str,
        attrs: dict,
    ):
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.name = name
        self.path = f"{parent.path}/{name}" if parent is not None else name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.duration: Optional[float] = None  # set on close


class Phases:
    """Stack-scoped phase timing into a tracer, a registry and totals.

    ``set_time`` pins the logical timestamp (simulation seconds, or the
    deploy loop's step index) stamped on every ``span`` event; wall-clock
    durations always come from ``time.perf_counter``.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._stack: List[Phase] = []
        self._next_id = 1
        # path -> [count, total, max, histogram]
        self._totals: Dict[str, list] = {}
        self.now = 0.0

    def set_time(self, now: float) -> None:
        """Pin the logical time stamped on subsequently closed phases."""
        self.now = float(now)

    @property
    def current(self) -> Optional[Phase]:
        """The innermost open phase, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def phase(self, name: str, **attrs) -> Iterator[Phase]:
        """Time the ``with`` body as a child of the innermost open phase.

        The phase is closed -- recorded and emitted -- even when the body
        raises, so crash-point injections and genuine failures never leak
        open phases or corrupt the stack.
        """
        phase = Phase(self._next_id, self.current, name, attrs)
        self._next_id += 1
        self._stack.append(phase)
        try:
            yield phase
        finally:
            elapsed = phase.duration = time.perf_counter() - phase.start
            self._stack.pop()
            stats = self._totals.get(phase.path)
            if stats is None:
                histogram = self.metrics.histogram("phase." + phase.path)
                stats = self._totals[phase.path] = [0, 0.0, 0.0, histogram]
            stats[0] += 1
            stats[1] += elapsed
            stats[2] = max(stats[2], elapsed)
            stats[3].observe(elapsed)
            if self.tracer:
                self.tracer.emit(
                    EVENT_SPAN,
                    self.now,
                    span_id=phase.span_id,
                    parent_id=phase.parent_id,
                    name=name,
                    duration=elapsed,
                    **attrs,
                )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-path stats (count, total, self, mean, max), pre-order."""
        child_totals: Dict[str, float] = {}
        for path, stats in self._totals.items():
            parent, _, _ = path.rpartition("/")
            if parent:
                child_totals[parent] = child_totals.get(parent, 0.0) + stats[1]
        return {
            path: {
                "count": stats[0],
                "total": stats[1],
                "self": stats[1] - child_totals.get(path, 0.0),
                "mean": stats[1] / stats[0],
                "max": stats[2],
            }
            for path, stats in sorted(
                self._totals.items(), key=lambda kv: kv[0].split("/")
            )
        }

    def __bool__(self) -> bool:
        return True


_NULL_PHASE = nullcontext()


class NullPhases(Phases):
    """Instrumentation disabled: every call is a shared no-op, falsy."""

    def set_time(self, now: float) -> None:
        pass

    def phase(self, name: str, **attrs):  # type: ignore[override]
        return _NULL_PHASE

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}

    def __bool__(self) -> bool:
        return False


#: Shared disabled instance -- what every driver holds with no sink attached.
NULL_PHASES = NullPhases()


def phases_for(
    tracer: Optional[Tracer], metrics: Optional[MetricsRegistry]
) -> Phases:
    """Live :class:`Phases` when either sink is on, else :data:`NULL_PHASES`."""
    if tracer or metrics:
        return Phases(tracer, metrics)
    return NULL_PHASES
