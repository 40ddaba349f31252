"""Self-tests of the benchmark; run from the root of the checkout:

    python3 perfbench/selftest.py

Each workload runs for a fraction of a second, with and without tracing.
The tests check that every metric is printed with its unit and matches
BENCHMARK.json, that a defective ``inverse_map`` is counted as failed, and
that the benchmark refuses to run without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
from bo_soliton.errors import (  # noqa: E402
    GramIllConditioned,
    InvariantViolation,
)
from bo_soliton.profiles import SolitonParameters  # noqa: E402

TINY_SECONDS = "0.2"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class PrintedMetrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3",
                     "--seconds", TINY_SECONDS, "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        key = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in self.spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

        report = "\n".join(lines[:-1])
        shown = dict(run.END_TO_END, **(run.PER_LAYER if trace else {}))
        for name, unit in shown.items():
            self.assertRegex(report, rf"(?m)^  {name} .* {unit}\b")

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


def perturbed_inverse_map(aa):
    """inverse_map with its output moved by 1e-3, as validate's defect."""
    back = worker.inverse_map(aa)
    return SolitonParameters(tuple(z + 1e-3 for z in back.zs))


class DefectIsCounted(unittest.TestCase):
    def run_defective(self, workload, trace, **overrides):
        res = worker.run_workload(workload, 5, float(TINY_SECONDS), trace,
                                  time.monotonic(), **overrides)
        self.assertGreaterEqual(res["failed"], 1)
        self.assertEqual(res["failed"] + res["refused"], res["attempted"])
        self.assertEqual(res["end_to_end"]["failed_frac"], 1.0)
        self.assertEqual(res["end_to_end"]["ops_per_s"], 0.0)
        self.assertFalse(run.report(res, [res])["correct"])
        return res

    def test_perturbed_inverse_map_fails_its_check(self):
        for workload in ("aa_separated", "aa_clustered"):
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    self.run_defective(workload, trace,
                                       inverse_map=perturbed_inverse_map)

    def test_typed_error_is_a_failure(self):
        # a breakdown, and the documented refusal on an input well inside
        # the envelope, both count as failed; the warm-up call goes through
        for error in (InvariantViolation, GramIllConditioned):
            calls = []

            def broken(params, error=error, calls=calls):
                calls.append(params)
                if len(calls) == 1:
                    return worker.spectral_decompose(params)
                raise error("injected")
            with self.subTest(error=error.__name__):
                res = self.run_defective("aa_separated", False,
                                         spectral_decompose=broken)
                self.assertEqual(res["refused"], 0)
                self.assertEqual(res["raised"],
                                 {error.__name__: res["attempted"]})


class NeedsTheSources(unittest.TestCase):
    def test_refuses_without_library(self):
        os.makedirs(worker.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=worker.OUT_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            os.mkdir(os.path.join(bare, "perfbench"))
            for name in ("run.py", "worker.py", "selftest.py"):
                shutil.copy(os.path.join(HERE, name),
                            os.path.join(bare, "perfbench"))
            proc = bench("--workload", "aa_separated", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
