"""Tests for the experiment harness: report container, workloads, drivers.

The drivers are exercised on reduced sweeps so the whole file stays fast;
the full sweeps are what the benchmarks run.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    EXPERIMENT_DRIVERS,
    ExperimentReport,
    adaptive_speculation,
    dijkstra_comparison,
    figure1_clock,
    mutex_workload,
    perturbed_configurations,
    random_configurations,
    render_experiments_markdown,
    run_all_experiments,
    table_speculative_examples,
    theorem2_sync_upper,
    theorem3_async_upper,
    theorem4_lower_bound,
)
from repro.graphs import ring_graph
from repro.mutex import SSME


class TestExperimentReport:
    def test_report_rendering(self):
        report = ExperimentReport(
            experiment_id="EX",
            title="demo",
            paper_claim="claim",
            rows=[{"a": 1, "b": 2.5}],
            summary={"key": "value"},
            passed=True,
            notes=["a note"],
        )
        text = report.to_text()
        assert "[EX] demo" in text
        assert "claim" in text
        assert "verdict: PASS" in text
        markdown = report.to_markdown()
        assert "### EX" in markdown
        assert "| a | b |" in markdown
        assert "a note" in markdown
        assert "rows=1" in repr(report)

    def test_report_requires_id(self):
        with pytest.raises(ExperimentError):
            ExperimentReport("", "t", "c", [])

    def test_failed_report_renders_fail(self):
        report = ExperimentReport("EX", "t", "c", [], passed=False)
        assert "FAIL" in report.to_text()


class TestWorkloads:
    def test_random_configurations(self, rng):
        protocol = SSME(ring_graph(6))
        configs = random_configurations(protocol, 4, rng)
        assert len(configs) == 4
        with pytest.raises(ExperimentError):
            random_configurations(protocol, -1, rng)

    def test_perturbed_configurations(self, rng):
        protocol = SSME(ring_graph(6))
        base = protocol.legitimate_configuration(0)
        configs = perturbed_configurations(protocol, base, 5, rng, corrupted_vertices=2)
        assert len(configs) == 5
        for config in configs:
            differing = base.differing_vertices(config)
            assert len(differing) <= 2

    def test_perturbed_configurations_validation(self, rng):
        protocol = SSME(ring_graph(6))
        base = protocol.legitimate_configuration(0)
        with pytest.raises(ExperimentError):
            perturbed_configurations(protocol, base, -1, rng)
        with pytest.raises(ExperimentError):
            perturbed_configurations(protocol, base, 1, rng, corrupted_vertices=-1)

    def test_perturbed_with_zero_corruption_returns_base(self, rng):
        protocol = SSME(ring_graph(6))
        base = protocol.legitimate_configuration(0)
        configs = perturbed_configurations(protocol, base, 2, rng, corrupted_vertices=0)
        assert all(config == base for config in configs)

    def test_mutex_workload_contains_adversarial_configurations(self, rng):
        protocol = SSME(ring_graph(6))
        workload = mutex_workload(protocol, rng, random_count=2)
        assert len(workload) == 4


class TestDrivers:
    def test_e1_figure1(self):
        report = figure1_clock.run_experiment(ssme_sizes=[4, 6])
        assert report.passed
        assert report.experiment_id == "E1"
        assert len(report.rows) == 3

    def test_e2_speculative_examples(self):
        report = table_speculative_examples.run_experiment(
            dijkstra_sizes=[5, 9],
            bfs_sizes=[6, 12],
            matching_sizes=[6, 9],
            configurations_per_graph=4,
        )
        assert report.experiment_id == "E2"
        assert report.passed
        for row in report.rows:
            assert row["sync_steps"] <= row["unfair_steps"]

    def test_e3_theorem2(self):
        report = theorem2_sync_upper.run_experiment(
            sweep=[("ring", 6), ("path", 7), ("star", 8)],
            random_configurations_per_graph=3,
        )
        assert report.experiment_id == "E3"
        assert report.passed
        for row in report.rows:
            assert row["measured_worst_steps"] <= row["bound_ceil_diam_over_2"]
            assert row["reaches_bound"]

    def test_e4_theorem3(self):
        report = theorem3_async_upper.run_experiment(
            sweep=[("ring", 5), ("star", 5)],
            random_configurations_per_graph=2,
        )
        assert report.experiment_id == "E4"
        assert report.passed
        for row in report.rows:
            assert row["unison_worst_steps"] <= row["theorem3_bound"]
            assert row["mutex_worst_steps"] <= row["unison_worst_steps"]

    def test_e5_theorem4(self):
        report = theorem4_lower_bound.run_experiment(
            sweep=[("ring", 8), ("grid", 9)], dijkstra_rings=[10]
        )
        assert report.experiment_id == "E5"
        assert report.passed
        for row in report.rows:
            assert row["witnesses_found"] == row["delays_tested"]

    def test_e6_dijkstra_comparison(self):
        report = dijkstra_comparison.run_experiment(ring_sizes=[8, 12], configurations_per_graph=4)
        assert report.experiment_id == "E6"
        assert report.passed
        for row in report.rows:
            assert row["ssme_steps"] <= row["dijkstra_steps"]

    def test_e7_ablation_privilege_spacing(self):
        from repro.experiments import ablation_privilege_spacing

        report = ablation_privilege_spacing.run_experiment(path_sizes=[7, 9])
        assert report.experiment_id == "E7"
        assert report.passed
        for row in report.rows:
            assert row["safe_in_gamma1"] == (row["spacing"] > row["diam"])
            if not row["safe_in_gamma1"]:
                assert row["violations_per_period"] >= 1


class TestReporting:
    def test_driver_registry_is_complete(self):
        assert set(EXPERIMENT_DRIVERS) == {
            "E1",
            "E2",
            "E3",
            "E4",
            "E5",
            "E6",
            "E7",
            "E8",
            "E9",
            "E10",
        }

    def test_run_all_selected(self):
        reports = run_all_experiments(only=["E1"])
        assert len(reports) == 1
        assert reports[0].experiment_id == "E1"

    def test_render_markdown(self):
        reports = run_all_experiments(only=["E1"])
        markdown = render_experiments_markdown(reports)
        assert "# EXPERIMENTS" in markdown
        assert "### E1" in markdown
        assert "PASS" in markdown

    def test_unknown_experiment_id_is_a_clear_error(self):
        with pytest.raises(ExperimentError) as info:
            run_all_experiments(only=["E42"])
        message = str(info.value)
        assert "'E42'" in message
        # the error enumerates the valid ids
        for experiment_id in EXPERIMENT_DRIVERS:
            assert experiment_id in message

    def test_drivers_declare_capabilities(self):
        for driver in EXPERIMENT_DRIVERS.values():
            assert driver.capabilities <= {"dispatcher", "workers", "max_n", "horizon"}
        assert "dispatcher" in EXPERIMENT_DRIVERS["E3"].capabilities
        assert EXPERIMENT_DRIVERS["E1"].capabilities == frozenset()

    def test_report_dict_round_trip(self):
        (report,) = run_all_experiments(only=["E1"])
        rebuilt = ExperimentReport.from_dict(report.to_dict())
        assert rebuilt.to_markdown() == report.to_markdown()
        assert rebuilt.to_dict() == report.to_dict()
        with pytest.raises(ExperimentError):
            ExperimentReport.from_dict({"title": "no id"})


#: E10 row specs as (kind, ring size, seeds, spec key).  The keys address
#: cached results, so a change that moves them must bump the experiment's
#: ``CODE_VERSION``; the seeds start after the four draws of rows E10 no
#: longer emits.
E10_ROW_SPECS = [
    ("protocol-gap", 4, (4029557120079369747,),
     "cad8baae8800b9c715327a436c92e0bea1f359409d134705f15642047b1ecdfd"),
    ("protocol-gap", 5, (2569146471088859254,),
     "72428160650932972c8d7874b5966329c4cbeab6dd88c2e81f9d07ab2b2cc603"),
    ("protocol-gap", 6, (2577854692418029171,),
     "5433b408cdf67ffac925fec1384e34b1bc2770b1c0cd8ad6def0108a47d2cddf"),
    ("protocol-gap", 7, (1749318759610081913,),
     "e70457eda525d774e778fdde9d78ce21b16fab097f777ab5293b45c6f36d3cf5"),
    ("protocol-gap", 8, (2710959347947821323,),
     "765b6e64410a3e4463a3c9ded96c3b368d5b8d2527405a4f291703889a3b3b9e"),
    ("protocol-switching", 8, (1821862095355237593, 1360307757430227195),
     "a9fb1577149c8a214d9cc8cd47c7c92d8383e0fb8d46ffc6846a8865fac02997"),
    ("protocol-switching", 12, (6091063652223914538, 6526298081964035572),
     "2ac80f1df5b7af8cee5018b1401630f92024551b1b099cab955c42b29eafa1a4"),
]


class TestAdaptiveSpeculationJobs:
    def test_rows_are_emitted_in_order(self):
        infos, specs = adaptive_speculation.emit_jobs()
        assert [(info["kind"], info["n"]) for info in infos] == [
            (kind, n) for kind, n, _, _ in E10_ROW_SPECS
        ]
        assert len(specs) == len(infos)

    @pytest.mark.parametrize(
        "row",
        range(len(E10_ROW_SPECS)),
        ids=[f"{kind}-ring{n}" for kind, n, _, _ in E10_ROW_SPECS],
    )
    def test_row_seeds_and_spec_keys_are_stable(self, row):
        kind, n, seeds, key = E10_ROW_SPECS[row]
        spec = adaptive_speculation.emit_jobs()[1][row]
        assert (spec.param("kind"), spec.graph_item("n")) == (kind, n)
        assert spec.seeds == seeds
        assert spec.spec_key == key


class TestEngineChoiceDoesNotChangeReports:
    """The engine a sweep resolves to is a speed choice only: ``auto``
    (dict paths below the dense-daemon size floor), ``vector`` and the
    ``reference`` oracle report identical rows."""

    ENGINES = ("auto", "vector", "reference")

    def test_theorem2_rows_identical_across_engines(self):
        reports = [
            theorem2_sync_upper.run_experiment(
                sweep=[("ring", 6), ("star", 9), ("complete", 8)],
                random_configurations_per_graph=3,
                engine=engine,
            )
            for engine in self.ENGINES
        ]
        assert reports[0].passed
        for report in reports[1:]:
            assert report.rows == reports[0].rows
            assert report.summary == reports[0].summary

    def test_theorem3_rows_identical_across_engines(self):
        reports = [
            theorem3_async_upper.run_experiment(
                sweep=[("ring", 5)], random_configurations_per_graph=2, engine=engine
            )
            for engine in self.ENGINES
        ]
        assert reports[0].passed
        for report in reports[1:]:
            assert report.rows == reports[0].rows
            assert report.summary == reports[0].summary
