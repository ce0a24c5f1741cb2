#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the checkout root

BENCHMARK.json is checked against the benchmark contract and against
the metric tables in bench.ml; short runs of every workload check that
the printed metric names match BENCHMARK.json, that exact metrics and
work counts repeat between runs of one seed, and that the benchmark
refuses to run, without printing a result, where only BENCHMARK.json
and perfbench/ exist.  The run tests build the program and take about
a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Metric units whose values are counts, ratios of counts or allocated
# words: identical in every run of one seed.  trace.overhead_ratio is the
# one timed ratio.
EXACT_UNITS = ("count", "ratio", "words")
TIMED_RATIOS = ("trace.overhead_ratio",)
# Work-record entries that legitimately differ between runs.
TIMED_WORK = ("repetitions", "heap_peak_mb")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    return proc


def record(workload, seed, trace):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError("run failed:\n" + proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        return result, json.load(f)


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 65536)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_tables_match_bench_ml(self):
        with open(os.path.join(HERE, "bench.ml")) as f:
            src = f.read()
        e2e = re.search(r"let end_to_end = \[([^\]]*)\]", src).group(1)
        layer = src[src.index("let per_layer ="):]
        layer = layer[:layer.index("]\n")]
        b = load_bench()
        self.assertEqual(re.findall(r'"([^"]+)"', e2e),
                         [m["name"] for m in b["end_to_end"]])
        self.assertEqual(
            re.findall(r'\("([^"]+)", "([^"]+)",', layer),
            [(m["name"], m["unit"]) for m in b["per_layer"]])


class Runs(unittest.TestCase):
    def test_untraced_names_and_exact_work_repeat(self):
        b = load_bench()
        declared = {m["name"]: m["unit"] for m in b["end_to_end"]}
        for w in [w["name"] for w in b["workloads"]]:
            with self.subTest(workload=w):
                r1, rec1 = record(w, 5, 0)
                r2, rec2 = record(w, 5, 0)
                self.assertEqual(set(r1), {"correct", "attempted", "failed",
                                           "metrics"})
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertGreaterEqual(r1["attempted"], 1)
                self.assertEqual(
                    {n: m["unit"] for n, m in r1["metrics"].items()}, declared)
                for k in rec1["work"]:
                    if k not in TIMED_WORK:
                        self.assertEqual(rec1["work"][k], rec2["work"][k], k)

    def test_traced_names_and_exact_metrics(self):
        b = load_bench()
        declared = {m["name"]: m["unit"] for m in b["per_layer"]}
        for w in [w["name"] for w in b["workloads"]]:
            with self.subTest(workload=w):
                r1, _ = record(w, 6, 1)
                r2, _ = record(w, 6, 1)
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertEqual(
                    {n: m["unit"] for n, m in r1["metrics"].items()}, declared)
                for n, m in r1["metrics"].items():
                    if m["unit"] in EXACT_UNITS and n not in TIMED_RATIOS:
                        self.assertEqual(m["value"], r2["metrics"][n]["value"],
                                         n)
                self.assertEqual(r1["metrics"]["replay.mismatches"]["value"], 0)

    def test_refuses_without_the_program(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, name)):
                shutil.copy(os.path.join(HERE, name),
                            os.path.join(bare, "perfbench"))
        proc = run("fuzz", 1, 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
