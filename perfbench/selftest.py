"""Self-tests of the benchmark, on toy-size instances (about a minute).

    python3 perfbench/selftest.py

They check that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a wrong expected value shows up as failed operations, that the
traced and untraced runs produce identical results and counts, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A fact of each workload's first operation, with a value it never has.
WRONG = {
    "sync-ring": ("ssme-delayed-latest", "stabilization", -1),
    "exact-gap": ("ssme-central-region", "states", -1),
    "cached-sweep": ("E3-cold", "jobs", -1),
}


def _toy(name, trace=False, reference=None):
    return bench.run_workload(name, seed=0, seconds=0, trace=trace, size="toy", reference=reference)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = {name: _toy(name) for name in bench.WORKLOAD_NAMES}
        cls.traced = {name: _toy(name, trace=True) for name in bench.WORKLOAD_NAMES}

    def _assert_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {entry["name"] for entry in declared})
        for entry in declared:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertNotIsInstance(metric["value"], bool)

    def test_workloads_match_the_contract(self):
        self.assertEqual([w["name"] for w in CONTRACT["workloads"]], list(bench.WORKLOAD_NAMES))
        self.assertEqual(CONTRACT["paths"], ["perfbench"])
        self.assertEqual(
            {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}, bench.END_TO_END
        )
        self.assertEqual(
            {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}, bench.PER_LAYER
        )

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in bench.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                _env, _details, result = self.untraced[name]
                self._assert_metrics(result, CONTRACT["end_to_end"])
                _env, _details, result = self.traced[name]
                self._assert_metrics(result, CONTRACT["per_layer"])

    def test_toy_runs_are_correct(self):
        for name in bench.WORKLOAD_NAMES:
            for runs in (self.untraced, self.traced):
                with self.subTest(workload=name):
                    env, details, result = runs[name]
                    self.assertEqual(details["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(details["failed_ratio"]["value"], 0.0)
                    self.assertEqual(env["seed"], 0)
                    self.assertTrue(env["backends"] or name == "exact-gap")

    def test_wrong_expected_value_counts_as_failed(self):
        for name, (label, fact, value) in WRONG.items():
            with self.subTest(workload=name):
                reference = {name: {"0": {"ops": {label: {fact: value}}}}}
                _env, details, result = _toy(name, reference=reference)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(details["failed_ratio"]["value"], 0.0)
                self.assertIn(label, {failure["label"] for failure in details["failures"]})

    def test_traced_and_untraced_runs_agree(self):
        for name in bench.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                _env, untraced, _result = self.untraced[name]
                _env, traced, result = self.traced[name]
                self.assertEqual(untraced["ops"], traced["ops"])
                self.assertEqual(untraced["counts"], traced["counts"])
                self.assertEqual(result["metrics"]["core.steps"]["value"] - traced["setup_steps"],
                                 traced["counts"]["core.steps"])

    def test_counts_repeat_exactly(self):
        for name in bench.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                _env, again, _result = _toy(name)
                self.assertEqual(again["counts"], self.untraced[name][1]["counts"])
                self.assertEqual(again["ops"], self.untraced[name][1]["ops"])
        for name in ("sync-ring", "exact-gap", "cached-sweep"):
            with self.subTest(workload=name):
                _env, _details, again = _toy(name, trace=True)
                for count in ("kernel.enabled_rules_calls", "core.steps", "verify.states",
                              "verify.transitions", "jobs.hit_ratio"):
                    self.assertEqual(again["metrics"][count],
                                     self.traced[name][2]["metrics"][count], count)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(ROOT / "perfbench", Path(scratch) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, *CONTRACT["command"][1:], "--workload", "sync-ring",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"metrics"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
