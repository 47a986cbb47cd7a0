#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py            # ~3 minutes: runs every workload once

Run from the root of a cmetile checkout (the first run builds .bench_build/).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_with_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples: p90 = 90, 10 above it
        self.assertEqual(run.percentile(values, 0.90), 90)
        self.assertEqual(run.percentile(list(reversed(values)), 0.90), 90)

    def test_fewer_than_ten_beyond_is_not_reported(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.90))  # 9 above p90
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertIsNotNone(run.percentile(list(range(1000)), 0.99))
        self.assertIsNone(run.percentile([], 0.5))

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)


class Metrics(unittest.TestCase):
    RAW = {"setup_s": [0.5, 0.4, 0.6], "timed_s": 2.0, "attempted": 10, "answered": 10,
           "failures": [], "cold_ms": [float(i) for i in range(10)], "peak_rss_mb": 50.0,
           "miss_cost": [0.5, 0.25], "sim_miss": [0.75]}

    def test_every_end_to_end_name_is_computed(self):
        figures, failed = run.end_to_end(self.RAW)
        self.assertEqual(failed, 0)
        for name in run.END_TO_END:
            self.assertIsNotNone(figures[name][0], name)
        self.assertEqual(figures["setup_s"][0], 0.5)
        self.assertEqual(figures["answers_per_s"][0], 5.0)
        self.assertEqual(figures["miss_cost_ratio"][0], 0.375)
        self.assertIsNone(figures["cold_ms_p90"][0])  # 10 samples: none beyond p90

    def test_gate_failures_count_into_error_share(self):
        raw = dict(self.RAW, answered=9, failures=["wrong tiles"])
        figures, failed = run.end_to_end(raw)
        self.assertEqual(failed, 2)
        self.assertEqual(figures["error_share"][0], 0.2)

    def test_benchmark_json_matches_the_names(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_answer_comparison_ignores_scheduling_telemetry(self):
        # perfbench selftest: eval_cache_* / seconds / from_cache changes keep
        # an answer equal; tile, estimate and GA changes do not.
        proc = subprocess.run([run.PERFBENCH, "selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_each_workload_prints_every_name_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                     "--workload", workload, "--seed", "3", "--seconds", "20", "--trace", "1"],
                    capture_output=True, text=True, cwd=run.ROOT, timeout=300)
                self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], run.PER_LAYER[name])
                printed = {line.split()[0]: line for line in lines[:-1] if line.startswith("  ")}
                for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
                    self.assertIn(name, printed)
                    self.assertTrue(f" {unit} " in printed[name] + " " or "n/a" in printed[name],
                                    printed[name])
                extra = {"serve": ["warm_ms_p50", "warm_ms_p99"], "sweep": ["replay_ms_p50"]}
                for name in ["cold_ms_p90", "error_share"] + extra.get(workload, []):
                    self.assertIn(name, printed)
                for name in ("setup_s", "answers_per_s", "cold_ms_p50", "error_share"):
                    self.assertIn("(n=", printed[name])

    def test_without_the_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
                 "--seconds", "20", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
