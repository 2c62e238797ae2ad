"""Tests for the E9 fault-campaign driver, its jobs and the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import fault_campaigns
from repro.experiments.__main__ import scenarios_main
from repro.experiments.reporting import render_experiments_markdown, run_all_experiments
from repro.jobs import Dispatcher, ResultStore
from repro.scenarios import get_scenario, list_scenarios

SMOKE = [scenario.name for scenario in list_scenarios("smoke")]

BENCH_FAULTS = Path(__file__).resolve().parents[1] / "BENCH_faults.json"


def test_committed_headlines_cover_every_registered_scenario():
    """``BENCH_faults.json`` holds one recovery headline per registered
    scenario, no more and no fewer (regenerate it with
    ``benchmarks/bench_fault_campaigns.py`` after adding a scenario)."""
    committed = json.loads(BENCH_FAULTS.read_text())["headline_recovery"]
    assert sorted(committed) == [scenario.name for scenario in list_scenarios()]


class TestEmitJobs:
    def test_one_spec_per_scenario_in_name_order(self):
        infos, specs = fault_campaigns.emit_jobs(tier="smoke")
        assert [info["name"] for info in infos] == SMOKE
        assert len(specs) == len(SMOKE)
        for scenario_name, spec in zip(SMOKE, specs):
            scenario = get_scenario(scenario_name)
            assert spec.runner == "repro.experiments.fault_campaigns:run_job"
            assert spec.code_version == fault_campaigns.CODE_VERSION
            assert spec.protocol == scenario.protocol
            assert spec.seeds == (scenario.seed,)
            assert spec.horizon == scenario.horizon
            assert spec.param("scenario") == scenario.name

    def test_spec_keys_are_stable_and_distinct(self):
        _, first = fault_campaigns.emit_jobs(tier="smoke")
        _, second = fault_campaigns.emit_jobs(tier="smoke")
        assert [s.spec_key for s in first] == [s.spec_key for s in second]
        assert len({s.spec_key for s in first}) == len(first)

    def test_engine_changes_the_spec_key(self):
        _, auto = fault_campaigns.emit_jobs(scenarios=SMOKE[:1])
        _, ref = fault_campaigns.emit_jobs(scenarios=SMOKE[:1], engine="reference")
        assert auto[0].spec_key != ref[0].spec_key

    def test_accepts_scenario_objects_and_names(self):
        scenario = get_scenario(SMOKE[0])
        _, by_name = fault_campaigns.emit_jobs(scenarios=[SMOKE[0]])
        _, by_object = fault_campaigns.emit_jobs(scenarios=[scenario])
        assert by_name[0].spec_key == by_object[0].spec_key


class TestRunJob:
    def test_pure_function_of_the_spec(self):
        _, specs = fault_campaigns.emit_jobs(scenarios=[SMOKE[0]])
        first = fault_campaigns.run_job(specs[0])
        second = fault_campaigns.run_job(specs[0])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_matches_the_registry_run(self):
        scenario = get_scenario("smoke-unison-path6-churn")
        _, specs = fault_campaigns.emit_jobs(scenarios=[scenario])
        via_job = fault_campaigns.run_job(specs[0])
        direct = scenario.run().to_dict()
        assert json.dumps(via_job, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_churn_scenario_changes_the_vertex_count(self):
        scenario = get_scenario("smoke-unison-path6-churn")
        _, specs = fault_campaigns.emit_jobs(scenarios=[scenario])
        result = fault_campaigns.run_job(specs[0])
        # One edge joins, one vertex leaves: n goes 6 -> 5, m 5 -> ...
        assert result["initial_n"] == 6
        assert result["final_n"] == 5


class TestScenarioPassed:
    def test_requires_final_safety(self):
        assert not fault_campaigns.scenario_passed(
            {"final_safe": False, "events": []}
        )

    def test_no_events_passes_when_safe(self):
        assert fault_campaigns.scenario_passed({"final_safe": True, "events": []})

    def test_last_event_must_have_recovered(self):
        events = [{"recovery_time": 3}, {"recovery_time": None}]
        assert not fault_campaigns.scenario_passed(
            {"final_safe": True, "events": events}
        )
        events[-1]["recovery_time"] = 0
        assert fault_campaigns.scenario_passed(
            {"final_safe": True, "events": events}
        )


class TestRunExperiment:
    def test_smoke_report_shape_and_pass(self):
        report = fault_campaigns.run_experiment(tier="smoke")
        assert report.experiment_id == "E9"
        assert report.passed
        assert [row["scenario"] for row in report.rows] == SMOKE
        assert report.summary["scenarios"] == len(SMOKE)
        assert report.summary["all_recovered_after_last_disruption"]
        for row in report.rows:
            assert 0.0 <= row["availability"] <= 1.0
            assert row["final_safe"]
            assert row["recovered_last"]

    def test_sequential_and_workers_are_byte_identical(self):
        sequential = fault_campaigns.run_experiment(tier="smoke")
        with Dispatcher(workers=2) as dispatcher:
            fanned = fault_campaigns.run_experiment(
                tier="smoke", dispatcher=dispatcher
            )
        assert render_experiments_markdown([sequential]) == render_experiments_markdown(
            [fanned]
        )

    def test_warm_cache_serves_all_hits(self, tmp_path):
        with Dispatcher(store=tmp_path) as dispatcher:
            cold = fault_campaigns.run_experiment(tier="smoke", dispatcher=dispatcher)
            assert not dispatcher.last_stats.all_hits
        with Dispatcher(store=tmp_path) as dispatcher:
            warm = fault_campaigns.run_experiment(tier="smoke", dispatcher=dispatcher)
            assert dispatcher.last_stats.all_hits
        assert render_experiments_markdown([cold]) == render_experiments_markdown(
            [warm]
        )

    def test_killed_then_resumed_report_is_byte_identical(self, tmp_path):
        """A campaign interrupted mid-grid resumes to the exact same report."""
        uninterrupted = render_experiments_markdown(
            [fault_campaigns.run_experiment(tier="smoke")]
        )
        # Simulate the kill: only part of the grid completed and was cached.
        store = ResultStore(tmp_path)
        _, specs = fault_campaigns.emit_jobs(tier="smoke")
        with Dispatcher(store=store) as dispatcher:
            dispatcher.run(specs[:1], label="E9")
        # The re-run picks the partial results out of the cache and
        # computes only the remainder.
        with Dispatcher(store=store) as dispatcher:
            resumed = fault_campaigns.run_experiment(
                tier="smoke", dispatcher=dispatcher
            )
            assert dispatcher.last_stats.hits >= 1
        assert render_experiments_markdown([resumed]) == uninterrupted

    def test_registered_with_the_harness(self, tmp_path):
        reports = run_all_experiments(only=["E9"], cache=str(tmp_path))
        assert len(reports) == 1
        assert reports[0].experiment_id == "E9"
        # E9 declares the dispatcher capability, so the harness's shared
        # cache applies: a second run is served entirely from it.
        again = run_all_experiments(only=["E9"], cache=str(tmp_path))
        assert render_experiments_markdown(reports) == render_experiments_markdown(
            again
        )


class TestScenariosCli:
    def test_list_names_every_scenario(self, capsys):
        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        for scenario in list_scenarios():
            assert scenario.name in out
        assert f"{len(list_scenarios())} scenario(s)" in out

    def test_list_tier_filter(self, capsys):
        assert scenarios_main(["list", "--tier", "smoke"]) == 0
        out = capsys.readouterr().out
        assert f"{len(SMOKE)} scenario(s)" in out
        for name in SMOKE:
            assert name in out

    def test_run_prints_recovery_summary(self, capsys):
        assert scenarios_main(["run", "smoke-ssme-ring8-periodic"]) == 0
        out = capsys.readouterr().out
        assert "smoke-ssme-ring8-periodic" in out
        assert "availability=" in out
        assert "final_safe=True" in out

    def test_run_json_round_trips(self, capsys):
        assert (
            scenarios_main(
                ["run", "smoke-dijkstra-ring6-burst", "--engine", "reference", "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        direct = get_scenario("smoke-dijkstra-ring6-burst").run(
            engine="reference"
        ).to_dict()
        assert data == direct

    def test_run_unknown_scenario_raises(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="unknown scenario"):
            scenarios_main(["run", "no-such-scenario"])
