#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

  python3 perfbench/test_perfbench.py

Builds the harness like run.py does, then checks that inputs are a pure
function of the seed, that tiny-size smoke runs of every workload pass
in both modes, and that the printed metric names and units are exactly
those in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def dump_inputs(workload, seed, count=12):
    out = subprocess.run(
        [str(run.HARNESS), "--workload", workload, "--seed", str(seed),
         "--dump-inputs", str(count)],
        capture_output=True, check=True, timeout=120)
    return out.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("harness build failed")

    def test_inputs_are_a_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = dump_inputs(workload, 5)
                self.assertTrue(first)
                self.assertEqual(first, dump_inputs(workload, 5))
                self.assertNotEqual(first, dump_inputs(workload, 6))

    def test_smoke_runs_pass_and_print_the_declared_metrics(self):
        declared = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run.run_once(workload, 1, 1, bool(trace),
                                                smoke=True, echo=False)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: metric["unit"]
                               for name, metric in result["metrics"].items()}
                    self.assertEqual(printed, declared[trace])

    def test_bare_directory_fails_without_a_result(self):
        bare = run.BUILD_ROOT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
