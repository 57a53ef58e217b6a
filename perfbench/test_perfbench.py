#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/test_perfbench.py

A one-second run of every workload, untraced and traced, must pass its own
correctness checks and print exactly the metrics BENCHMARK.json names, with
their units. The same seed must repeat its fixed-work counts, the traced run
must leave a well-formed span file, and a run without the program's sources
or with bad arguments must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(root, *args):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


def quick(workload, trace):
    return run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace))


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fixed_work(proc):
    """The log lines that count work; they must repeat exactly."""
    return [line for line in proc.stdout.splitlines()
            if line.startswith("log ") and "calibrated" not in line]


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = quick(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        got = result(proc)
        self.assertEqual(set(got), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(got["correct"], True)
        self.assertGreaterEqual(got["attempted"], 1)
        self.assertEqual(got["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(got["metrics"]), {m["name"] for m in spec})
        for metric in spec:
            value = got["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(value["value"]), metric["name"])
            if not trace:
                self.assertGreater(value["value"], 0, metric["name"])
        return proc

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced_runs_print_every_per_layer_metric_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)
                path = os.path.join(ROOT, ".bench_build", "perfbench", "work",
                                    f"spans-{workload}-seed{SEED}.json")
                with open(path) as f:
                    spans = json.load(f)
                self.assertTrue(spans)
                by_id = {s["id"]: s for s in spans}
                for span in spans:
                    self.assertLessEqual(span["start_us"], span["end_us"])
                    if span["parent"]:
                        parent = by_id[span["parent"]]
                        self.assertEqual(parent["trace"], span["trace"])

    def test_same_seed_repeats_its_work(self):
        for workload in ("coop-rounds", "cluster-stream"):
            with self.subTest(workload=workload):
                first, second = quick(workload, 0), quick(workload, 0)
                self.assertTrue(fixed_work(first))
                self.assertEqual(fixed_work(first), fixed_work(second))


class Refusals(unittest.TestCase):
    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "coop-rounds", "--seed", "1", "--seconds", "1"],
                     ["--workload", "coop-rounds", "--seed", "x", "--seconds", "1",
                      "--trace", "0"]):
            with self.subTest(args=args):
                proc = run(ROOT, *args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)

    def test_without_program_sources_it_fails(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            proc = run(bare, "--workload", "coop-rounds", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
