"""Shape of BENCHMARK.json, and agreement with the binary's metric list.

Run from this directory: python3 -m unittest test_benchmark_json
(`python3 perfbench/run.py --self-test` does that after building). With
PERFBENCH_BIN set to the built perfbench binary, its --list-metrics output must match.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJsonShape(unittest.TestCase):
    def setUp(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        self.assertLessEqual(os.path.getsize(path), 64 * 1024)
        with open(path) as f:
            self.spec = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})

    def test_command_and_paths(self):
        command, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(command) <= 32)
        self.assertTrue(all(isinstance(c, str) and len(c) <= 200 for c in command))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for c in command[1:]:
            self.assertFalse(c.startswith("/") or ".." in c.split("/"))
            if "/" in c:
                self.assertTrue(any(c.startswith(p + "/") for p in paths), c)

    def test_run_seconds(self):
        secs = self.spec["run_seconds"]
        self.assertIsInstance(secs, int)
        self.assertTrue(1 <= secs <= 60)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metrics(self):
        end_to_end, per_layer = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(end_to_end) <= 16)
        self.assertTrue(1 <= len(per_layer) <= 128)
        for m in end_to_end:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in per_layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in end_to_end + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        names = [m["name"] for m in end_to_end + per_layer]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_has_the_largest_bound(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    @unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "needs the built perfbench binary")
    def test_binary_reports_the_declared_metrics(self):
        out = subprocess.run([os.environ["PERFBENCH_BIN"], "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        listed = json.loads(out)
        self.assertEqual(listed["workloads"], [w["name"] for w in self.spec["workloads"]])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in listed[key]],
                             [(m["name"], m["unit"]) for m in self.spec[key]])


if __name__ == "__main__":
    unittest.main()
