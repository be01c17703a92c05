"""Tests for the shared benchmark helpers (``benchmarks/bench_common.py``)."""

import importlib.util
import os

import pytest

from repro.obs import MetricsRegistry, Phases

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "bench_common.py",
)
_SPEC = importlib.util.spec_from_file_location("bench_common", _PATH)
bench_common = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_common)


class TestPhaseP95:
    def test_reads_a_recorded_phase_path(self):
        registry = MetricsRegistry()
        phases = Phases(metrics=registry)
        with phases.phase("interval"):
            with phases.phase("schedule"):
                with phases.phase("place"):
                    pass
        histogram = registry.histogram("phase.interval/schedule/place")
        assert histogram.count == 1
        assert bench_common.phase_p95_ms(
            registry, "interval/schedule/place"
        ) == round(1000.0 * histogram.quantile(0.95), 4)

    def test_missing_path_raises(self):
        registry = MetricsRegistry()
        with Phases(metrics=registry).phase("allocate"):
            pass
        # A stale flat name must not read back as a passing 0.0.
        with pytest.raises(LookupError):
            bench_common.phase_p95_ms(registry, "interval/schedule/allocate")
        with pytest.raises(LookupError):
            bench_common.phase_p95_ms(MetricsRegistry(), "allocate")
