"""Tests of perfbench/run.py and the benchmark's configuration files.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

BENCH = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
CONFIG = json.loads((HERE.parent / "workloads.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def report(metrics, correct=True, attempted=10, failed=0):
    """A report document as the perfbench binary prints it."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "ops_failed_frac": failed / attempted, "failure_reasons": {},
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()},
            "notes": {}}


def all_metrics(kind):
    return {m["name"]: (1.5, m["unit"]) for m in BENCH[kind]}


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in BENCH["workloads"]]
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))

    def test_open_loop_rate_is_recorded(self):
        rate = CONFIG["serve_geant2"]["open_loop_rps"]
        self.assertIsInstance(rate, (int, float))
        self.assertGreater(rate, 0)


class PredictionTableTest(unittest.TestCase):
    def test_every_per_layer_metric_has_a_prediction(self):
        self.assertEqual([m["name"] for m in BENCH["per_layer"]],
                         list(CONFIG["predictions"]))

    def test_predictions_name_real_metrics_and_workloads(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        for name, p in CONFIG["predictions"].items():
            self.assertLessEqual(set(p["moves"]), e2e, name)
            self.assertLessEqual(set(p["on"]) | set(p["unchanged_on"]),
                                 workloads, name)
            self.assertFalse(set(p["on"]) & set(p["unchanged_on"]), name)
            self.assertEqual(bool(p["moves"]), bool(p["on"]), name)


class ResultLineTest(unittest.TestCase):
    def test_end_to_end_result_parses_against_metric_names(self):
        line, problems = run.result_line(report(all_metrics("end_to_end")),
                                         BENCH, trace=False)
        self.assertEqual(problems, [])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in BENCH["end_to_end"]})
        json.loads(json.dumps(line))

    def test_traced_result_selects_per_layer_metrics(self):
        metrics = {**all_metrics("end_to_end"), **all_metrics("per_layer")}
        line, problems = run.result_line(report(metrics), BENCH, trace=True)
        self.assertEqual(problems, [])
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in BENCH["per_layer"]})

    def test_missing_or_mislabelled_metric_is_incorrect(self):
        metrics = all_metrics("end_to_end")
        del metrics["setup_s"]
        metrics["latency_p50_ms"] = (1.0, "s")
        line, problems = run.result_line(report(metrics), BENCH, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(len(problems), 2)
        self.assertNotIn("setup_s", line["metrics"])

    def test_null_value_is_incorrect(self):
        metrics = all_metrics("end_to_end")
        metrics["setup_s"] = (None, "s")
        line, _ = run.result_line(report(metrics), BENCH, trace=False)
        self.assertFalse(line["correct"])

    def test_failed_operations_carry_through(self):
        line, _ = run.result_line(
            report(all_metrics("end_to_end"), correct=False, attempted=8,
                   failed=2), BENCH, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (8, 2))


if __name__ == "__main__":
    unittest.main()
