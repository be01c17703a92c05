"""The one deploy drill driver: ``repro drill``, the soak ``drill`` section
and the drill-section parser.

The failure-case tests go through ``repro.cli.main`` and
``ScenarioSpec.from_dict`` only, so they exercise the public surface.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.sim.soak import ScenarioSpec, run_soak

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

RECONCILE_POINTS = ("after_checkpoint", "after_teardown", "mid_launch", "after_launch")

SMALL = {
    "name": "drill-soak",
    "seed": 3,
    "servers": 4,
    "horizon": 4_000.0,
    "interval": 200.0,
    "workload": [{"arrivals": "uniform", "jobs": 2, "window": 400.0}],
}


def _drill_json(capsys, *argv):
    code = main(["drill", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestDrillCli:
    @pytest.mark.parametrize("point", RECONCILE_POINTS)
    def test_crash_point_recovers_and_drains_clean(self, capsys, point):
        code, payload = _drill_json(capsys, "--crash-point", point, "--expire-node", "2")
        summary = payload["summary"]
        assert code == 0, payload["failures"]
        assert payload["failures"] == []
        assert summary["controller crashes injected"] == 1
        assert summary["recoveries"] == 1
        assert summary["nodes cordoned"] == 1
        assert summary["pods running"] == 9
        assert payload["leaks"] == {
            "leaked_pods": [],
            "leaked_leases": [],
            "leaked_intents": [],
        }
        assert sorted(payload["checkpoints"]) == ["drill-0", "drill-1", "drill-2"]

    def test_crash_during_the_drain_is_recovered(self, capsys):
        # Two steps rescale nothing, so the first teardown is the drain's.
        code, payload = _drill_json(capsys, "--crash-point", "after_teardown", "--steps", "2")
        assert code == 0, payload["failures"]
        assert payload["summary"]["controller crashes injected"] == 1
        assert payload["summary"]["intents replayed"] == 1
        assert not any(payload["leaks"].values())

    def test_crash_point_that_never_fires_fails(self, capsys):
        code, payload = _drill_json(capsys, "--crash-point", "after_teardown", "--steps", "0")
        assert code == 1
        assert payload["summary"]["controller crashes injected"] == 0
        assert payload["failures"] == ["crash point 'after_teardown' never fired"]

    @pytest.mark.parametrize("node", ["4", "9", "-2"])
    def test_out_of_range_expire_node_is_a_usage_error(self, capsys, node):
        assert main(["drill", "--expire-node", node]) == 2
        assert "expire_node" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--kills", "0"], ["--lease-ttl", "0"]])
    def test_failover_bad_flag_is_a_usage_error(self, capsys, flags):
        assert main(["failover", *flags]) == 2
        assert capsys.readouterr().err.startswith("failover: ")

    def test_no_crash_point_needs_no_crash(self, capsys):
        code, payload = _drill_json(capsys)
        assert code == 0
        assert payload["summary"]["controller crashes injected"] == 0


BAD_SECTIONS = [
    {"kind": "failovr"},
    {"jobs": "three"},
    {"crash_point": "after_teardwon"},
    {"stepz": 2},
    {"jobs": 0},
    {"expire_node": 4},
    {"steps": True},
    {"crash_point": "mid_step_deposed"},  # a failover-only kill mode
    {"kind": "failover", "steps": 3},  # a crash-drill key
    {"kind": "failover", "crash_point": "bogus"},
    {"kind": "failover", "lease_ttl": 0},
    {"kind": "failover", "kills": 0},
    {"lease_ttl": float("nan")},
]


class TestDrillSection:
    @pytest.mark.parametrize("section", BAD_SECTIONS, ids=repr)
    def test_bad_section_fails_at_load(self, section):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(dict(SMALL, drill=section))

    def test_soak_cli_exits_2_on_a_bad_section(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(SMALL, drill={"stepz": 2})))
        assert main(["soak", "--scenario", str(path)]) == 2
        assert "stepz" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["soak_48h.json", "soak_failover.json"])
    def test_example_sections_parse(self, name):
        from repro.deploy import FailoverConfig
        from repro.deploy.drill import CrashDrillConfig, drill_config

        scenario = json.loads((SCENARIOS / name).read_text())
        config = drill_config(scenario["drill"], seed=7, policy="optimus")
        kind = scenario["drill"].get("kind", "crash")
        assert isinstance(config, FailoverConfig if kind == "failover" else CrashDrillConfig)
        assert config.seed == 7

    def test_failover_section_keeps_its_own_seed(self):
        from repro.deploy import FailoverConfig
        from repro.deploy.drill import drill_config

        config = drill_config({"kind": "failover", "seed": 5, "kills": 2}, seed=1)
        assert config == FailoverConfig(seed=5, kills=2)


class TestSoakDrill:
    def test_never_fired_crash_fails_the_soak(self):
        spec = dict(SMALL, drill={"crash_point": "after_teardown", "steps": 0})
        outcome = run_soak(ScenarioSpec.from_dict(spec))
        assert not outcome.ok
        assert [v.invariant for v in outcome.violations] == ["drill-failed"]
        assert outcome.report["ok"] is False

    def test_crash_drill_jobs_drain_without_leaks(self):
        spec = dict(SMALL, drill={"crash_point": "mid_launch", "jobs": 2, "steps": 2})
        outcome = run_soak(ScenarioSpec.from_dict(spec))
        assert outcome.ok, [v.message for v in outcome.violations]
        accounting = [e for e in outcome.events if e["event"] == "run_completed"][0]
        assert {"drill-0", "drill-1"} <= set(accounting["unfinished"])
        assert accounting["leaked_pods"] == accounting["leaked_intents"] == []
