"""Tests for the ``python -m repro.experiments`` command-line entry point."""

from __future__ import annotations

import re

import pytest

from repro.core.simulator import ENGINES
from repro.experiments.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        exit_code = main(["E1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[E1]" in captured.out
        assert "verdict: PASS" in captured.out

    def test_write_markdown(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        exit_code = main(["E1", "--write", str(target)])
        assert exit_code == 0
        text = target.read_text(encoding="utf-8")
        assert "# EXPERIMENTS" in text
        assert "### E1" in text
        assert "PASS" in text

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["E99"])

    def test_cache_flag_populates_and_reuses_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["E8", "--cache", str(cache)]) == 0
        assert (cache / "results").is_dir()
        first = capsys.readouterr().out
        assert main(["E8", "--cache", str(cache)]) == 0
        second = capsys.readouterr().out
        assert second == first

    def test_no_cache_flag_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["E8", "--no-cache"]) == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_refresh_flag_accepted(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["E8", "--cache", str(cache)]) == 0
        assert main(["E8", "--cache", str(cache), "--refresh"]) == 0

    def test_progress_flag_streams_to_stderr(self, tmp_path, capsys):
        assert main(["E8", "--cache", str(tmp_path / "c"), "--progress"]) == 0
        captured = capsys.readouterr()
        assert "computed" in captured.err


class TestJobsCli:
    def test_list_empty_cache(self, tmp_path, capsys):
        assert main(["jobs", "list", "--cache", str(tmp_path)]) == 0
        assert "0 cached result(s)" in capsys.readouterr().out

    def test_status_empty_cache(self, tmp_path, capsys):
        assert main(["jobs", "status", "--cache", str(tmp_path)]) == 0
        assert "no sweep journals" in capsys.readouterr().out

    def test_list_status_clear_after_a_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["E8", "--cache", cache]) == 0
        capsys.readouterr()

        assert main(["jobs", "list", "--cache", cache]) == 0
        listing = capsys.readouterr().out
        assert "0 cached result(s)" not in listing
        assert "runner=" in listing

        assert main(["jobs", "status", "--cache", cache]) == 0
        status = capsys.readouterr().out
        assert "[complete]" in status

        assert main(["jobs", "clear-cache", "--cache", cache]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["jobs", "list", "--cache", cache]) == 0
        assert "0 cached result(s)" in capsys.readouterr().out

    def test_unknown_action_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["jobs", "frobnicate"])


class TestScenariosCli:
    def test_engine_choices_are_the_simulator_engines(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenarios", "run", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        choices = re.search(r"--engine \{([^}]*)\}", usage).group(1)
        assert tuple(choices.split(",")) == ENGINES

    def test_adaptive_engine_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenarios", "run", "smoke-ssme-ring8-periodic", "--engine", "adaptive"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'adaptive'" in capsys.readouterr().err
