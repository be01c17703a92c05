"""Plain-text reporting helpers for examples, the CLI and bench reports.

Everything here renders into monospace text -- no plotting dependencies --
so experiment output is readable in a terminal and diffable in a repo.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, Sequence

from repro.common.errors import ConfigurationError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A one-line unicode chart of *values* (empty string for no data).

    Examples
    --------
    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    data = [float(v) for v in values]
    if not data:
        return ""
    if any(math.isnan(v) or math.isinf(v) for v in data):
        raise ConfigurationError("sparkline values must be finite")
    lo, hi = min(data), max(data)
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[0] * len(data)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(_SPARK_LEVELS[int(round((v - lo) * scale))] for v in data)


def bar_chart(
    rows: Sequence[tuple],
    width: int = 40,
    unit: str = "",
) -> str:
    """A horizontal bar chart from ``[(label, value), ...]``.

    The longest bar spans *width* characters; labels are right-aligned.
    """
    if width < 1:
        raise ConfigurationError("width must be >= 1")
    items = [(str(label), float(value)) for label, value in rows]
    if not items:
        return ""
    if any(v < 0 for _, v in items):
        raise ConfigurationError("bar_chart values must be non-negative")
    peak = max(v for _, v in items)
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        length = 0 if peak == 0 else int(round(width * value / peak))
        lines.append(
            f"{label:>{label_width}s} | {'█' * length} {value:g}{unit}"
        )
    return "\n".join(lines)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """An aligned plain-text table; numbers are right-aligned."""
    if not headers:
        raise ConfigurationError("need at least one header")
    string_rows = [[_cell(v) for v in row] for row in rows]
    for row in string_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in string_rows))
        if string_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    is_numeric = [
        bool(string_rows) and all(_numeric(r[i]) for r in string_rows)
        for i in range(len(headers))
    ]

    def render(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if is_numeric[i]:
                parts.append(f"{cell:>{widths[i]}s}")
            else:
                parts.append(f"{cell:<{widths[i]}s}")
        return "  ".join(parts).rstrip()

    lines = [render([str(h) for h in headers])]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render(row) for row in string_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def json_summary(result) -> Dict:
    """``result.summary()`` ready for strict JSON: a value that is infinite
    because some job never finished (makespan, average JCT) becomes null."""
    return {
        k: (None if isinstance(v, float) and math.isinf(v) else v)
        for k, v in result.summary().items()
    }


def result_to_dict(result) -> Dict:
    """A JSON-ready dictionary of a :class:`~repro.sim.SimulationResult`."""
    return {
        "scheduler": result.scheduler_name,
        "seed": result.seed,
        "interval": result.interval,
        "summary": json_summary(result),
        "jobs": [
            {
                "job_id": record.job_id,
                "model": record.model,
                "mode": record.mode,
                "arrival_time": record.arrival_time,
                "completion_time": record.completion_time,
                "jct": None if record.completion_time is None else record.jct,
                "scaling_time": record.scaling_time,
                "num_scalings": record.num_scalings,
                "chunks_moved": record.chunks_moved,
                "num_restarts": record.num_restarts,
                "steps_lost": record.steps_lost,
            }
            for record in result.jobs.values()
        ],
        "phase_timings": result.phase_timings,
        "timeline": [
            {
                "time": slot.time,
                "running_jobs": slot.running_jobs,
                "running_tasks": slot.running_tasks,
                "allocated_cpu": slot.allocated_cpu,
                "worker_utilization": slot.worker_utilization,
                "ps_utilization": slot.ps_utilization,
            }
            for slot in result.timeline
        ],
    }


def result_to_json(result, indent: Optional[int] = 2) -> str:
    """Serialise a simulation result for offline analysis."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)
