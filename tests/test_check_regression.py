"""Tests for the BENCH regression gate (``benchmarks/check_regression.py``)."""

import importlib.util
import json
import os

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "check_regression.py",
)
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)

BASELINE = {"wall_seconds": 7.0, "average_jct_seconds": 7257.12, "jobs_completed": 2000}
EXACT = ["--exact", "average_jct_seconds", "--exact", "jobs_completed"]


def _gate(tmp_path, current, *extra):
    base = tmp_path / "baseline.json"
    cur = tmp_path / "current.json"
    base.write_text(json.dumps(BASELINE))
    cur.write_text(json.dumps(current))
    return check_regression.main([str(base), str(cur), *extra])


class TestExact:
    def test_equal_keys_pass(self, tmp_path):
        current = dict(BASELINE, wall_seconds=5.0, average_jct_seconds=7257.12 * (1 + 1e-12))
        assert _gate(tmp_path, current, *EXACT) == 0

    def test_moved_key_fails_inside_the_ratio_band(self, tmp_path):
        current = dict(BASELINE, average_jct_seconds=7250.0)
        assert _gate(tmp_path, current) == 0  # the 30% band alone lets it pass
        assert _gate(tmp_path, current, *EXACT) == 1

    def test_moved_count_fails(self, tmp_path):
        assert _gate(tmp_path, dict(BASELINE, jobs_completed=2001), *EXACT) == 1

    def test_listed_key_missing_fails(self, tmp_path):
        assert _gate(tmp_path, dict(BASELINE), "--exact", "makespan_seconds") == 1
