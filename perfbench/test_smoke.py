"""Smoke tests for the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.units = {
            trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))
        }

    def test_every_metric_is_reported_with_its_unit(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                                 "--trace", str(trace), "--tiny", cwd=ROOT)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout.splitlines()[-2])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, self.units[trace])

    def test_corrupted_answer_counts_as_failed(self):
        run.load_package()
        import bottleneck_trees as bt

        honest = bt.solve_pbst

        def one_tree(instance, k):
            result = honest(instance, k)
            whole = bt.minimum_spanning_tree(instance, instance.points())
            return dataclasses.replace(result, forest=bt.Forest((whole,)))

        bt.solve_pbst = one_tree
        try:
            result, details = run.run_workload("plane-2d", 3, 0.0, False, True)
        finally:
            bt.solve_pbst = honest
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)  # pbst k=2, 3 and 4
        self.assertAlmostEqual(details["failed_frac"], 3 / result["attempted"])

    def test_refuses_to_run_without_package_sources(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = bench("--workload", "plane-2d", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
