"""Unit tests of the benchmark's own helpers. No build needed:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_an_actual_sample(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(values, 50).value, 50)
        self.assertEqual(benchlib.percentile(values, 99).value, 99)
        self.assertEqual(benchlib.percentile(values, 100).value, 100)
        self.assertEqual(benchlib.percentile([7, 3], 50).value, 3)
        self.assertEqual(benchlib.percentile([5], 99).value, 5)

    def test_reports_sample_count_and_tail(self):
        p = benchlib.percentile(range(1000), 99)
        self.assertEqual((p.n, p.beyond), (1000, 10))
        self.assertTrue(p.supported)
        p = benchlib.percentile(range(999), 99)
        self.assertEqual(p.beyond, 9)
        self.assertFalse(p.supported)

    def test_empty_sample(self):
        p = benchlib.percentile([], 50)
        self.assertIsNone(p.value)
        self.assertEqual(p.n, 0)
        self.assertFalse(p.supported)

    def test_rejects_out_of_range(self):
        for bad in (0, -1, 100.5):
            with self.assertRaises(ValueError):
                benchlib.percentile([1, 2, 3], bad)

    def test_trimmed_mean_drops_the_tail(self):
        values = [1] * 95 + [1000] * 5
        self.assertEqual(benchlib.trimmed_mean(values, 95), 1)
        self.assertEqual(benchlib.trimmed_mean([4, 2], 100), 3)
        self.assertIsNone(benchlib.trimmed_mean([], 95))


class GoldenTest(unittest.TestCase):
    GOLDEN = {"toll_notifications": 3195, "toll_p99_us": 23408}

    def test_equal_outputs_pass(self):
        actual = dict(self.GOLDEN, extra_field=1)  # extra keys are not checked
        self.assertEqual(benchlib.compare_golden(self.GOLDEN, actual), [])

    def test_mismatch_and_missing_are_reported(self):
        problems = benchlib.compare_golden(self.GOLDEN, {"toll_notifications": 3194})
        self.assertEqual(len(problems), 2)
        self.assertIn("toll_notifications: 3194 != golden 3195", problems)
        self.assertTrue(any(p.startswith("toll_p99_us: missing") for p in problems))

    def test_committed_golden_files_are_complete(self):
        files = sorted((HERE / "golden").glob("*.json"))
        self.assertEqual(len(files), 4)  # two workloads x default + held-out seed
        keys = set(run.OUTPUT_KEYS) | {"toll_p50_us", "toll_p95_us", "toll_p99_us"}
        for path in files:
            self.assertEqual(set(json.loads(path.read_text())), keys, path.name)

    def test_live_failures_count_lost_rejected_and_missing_tolls(self):
        record = {"outputs": {"reports_sent": 100, "reports_delivered": 98,
                              "parse_errors": 1, "schema_rejects": 0, "frame_errors": 0,
                              "toll_notifications": 40, "expected_tolls": 41}}
        attempted, failed, problems = run.check_live([record])
        self.assertEqual((attempted, failed, len(problems)), (141, 4, 1))
        record["outputs"].update(reports_delivered=100, parse_errors=0, toll_notifications=41)
        self.assertEqual(run.check_live([record])[1:], (0, []))


class ValidationTest(unittest.TestCase):
    def test_committed_benchmark_json_is_valid(self):
        self.assertEqual(benchlib.validate_benchmark(SPEC), [])

    def test_end_to_end_metrics_match_what_run_measures(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        self.assertEqual(benchlib.check_declared(declared, run.END_TO_END_UNITS, "e2e"), [])

    def test_workloads_are_the_three_linear_road_paths(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["fig5_ramp", "overload", "live_tcp"])

    def test_bad_names_and_units(self):
        for name in ("_x", "", "a b", "x" * 65, "ü"):
            doc = copy.deepcopy(SPEC)
            doc["per_layer"][0]["name"] = name
            self.assertTrue(benchlib.validate_benchmark(doc), name)
        self.assertFalse(benchlib.validate_benchmark(
            dict(copy.deepcopy(SPEC), per_layer=[{"name": "9a.b-c_d", "unit": "1/s",
                                                  "better": "lower"}])))
        doc = copy.deepcopy(SPEC)
        doc["end_to_end"][1]["unit"] = "seconds_of_wall_x"  # 17 characters
        self.assertTrue(benchlib.validate_benchmark(doc))

    def test_contract_violations(self):
        cases = {
            "bound": lambda d: d["end_to_end"][1].update(bound=0.3),
            "duplicate": lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
            "workload reused as metric": lambda d: d["per_layer"][0].update(name="overload"),
            "one workload": lambda d: d.update(workloads=d["workloads"][:1]),
            "two-line why": lambda d: d["workloads"][0].update(why="a\nb"),
            "no setup_s": lambda d: d["end_to_end"].pop(0),
            "absolute command": lambda d: d.update(command=["python3", "/tmp/run.py"]),
            "run_seconds": lambda d: d.update(run_seconds=61),
            "extra key": lambda d: d.update(extra=1),
        }
        for label, mutate in cases.items():
            doc = copy.deepcopy(SPEC)
            mutate(doc)
            self.assertTrue(benchlib.validate_benchmark(doc), label)

    def test_check_declared(self):
        self.assertEqual(benchlib.check_declared(["a", "b"], {"a": 1, "b": 2}, "k"), [])
        problems = benchlib.check_declared(["a", "b"], {"a": 1, "c": 2}, "k")
        self.assertEqual(len(problems), 2)


if __name__ == "__main__":
    unittest.main()
