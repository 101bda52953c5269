"""Self-tests of the benchmark harness (stdlib only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload is cut to a few cheap hosts and run for a single pass, so the
whole file takes seconds.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def small(name: str, hosts: int = 2):
    """The named workload cut to its first `hosts` inputs."""
    w = copy.copy(workloads.WORKLOADS[name])
    w.inputs = w.inputs[:hosts]
    return w


class SmokeTest(unittest.TestCase):
    def test_workload_names_match_the_definition(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_every_workload_reports_every_metric_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    record = run.run_workload(small(name), seed=0, seconds=0, trace=trace)
                    self.assertEqual(record["failed"], 0, record["failures"])
                    got = {k: v["unit"] for k, v in record["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in record["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                        if not trace:
                            self.assertGreater(metric["value"], 0)

    def test_every_classified_host_has_a_recorded_verdict_digest(self):
        recorded = workloads.load_reference()["verdicts_sha256"]
        for w in workloads.WORKLOADS.values():
            if isinstance(w, workloads.Classify):
                for kind, value in w.inputs:
                    self.assertIn(workloads.spec_key(kind, value), recorded)


class CorruptedReferenceTest(unittest.TestCase):
    """A wrong reference must fail ops, so the checks cannot pass vacuously."""

    def test_wrong_rank_fails_every_workload(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                w = small(name)
                expect = w.expect
                w.expect = lambda *a: {**expect(*a), "rank": expect(*a)["rank"] + 1}
                record = run.run_workload(w, seed=0, seconds=0, trace=False)
                self.assertGreater(record["failed_ratio"], 0)

    def test_wrong_verdict_digest_fails_the_classify_op(self):
        reference = copy.deepcopy(workloads.load_reference())
        reference["verdicts_sha256"]["path-k3"] = "0" * 64
        record = run.run_workload(small("classify_sparse", 1), seed=0, seconds=0,
                                  trace=False, reference=reference)
        self.assertEqual(record["failed_ratio"], 1.0)
        self.assertIn("recorded reference", record["failures"][0])


class TracingTest(unittest.TestCase):
    def test_wrappers_cover_every_binding_and_are_removed(self):
        rm = workloads.import_rankmax()
        original = rm.oracle.longest_path_length
        tracer = tracing.Tracer(rm.CapExceeded)
        with tracing.installed(tracer):
            self.assertIs(rm.longest_path_length, rm.oracle.longest_path_length)
            self.assertIs(rm.oracle.longest_path_length.__wrapped__, original)
            self.assertIs(rm.is_valid_ranking, rm.oracle.is_valid_ranking)
            self.assertIs(rm.verify.build_family, rm.construct.build_family)
            g = rm.build_family(rm.FamilySpec.path(3))
            rm.RankOracle().rank_number(g)
        self.assertIs(rm.longest_path_length, original)
        self.assertNotIn("__wrapped__", vars(rm.RankOracle.rank_number))
        self.assertEqual(tracer.totals["ranking.build_family"][0], 1)
        self.assertEqual(tracer.totals["oracle.rank_number"][0], 1)
        self.assertGreater(tracer.nodes, 0)

    def test_refusals_are_counted(self):
        rm = workloads.import_rankmax()
        tracer = tracing.Tracer(rm.CapExceeded)
        g = rm.build_family(rm.FamilySpec.path(5))
        with tracing.installed(tracer), self.assertRaises(rm.CapExceeded):
            rm.RankOracle().rank_number(g)
        self.assertEqual(tracer.refusals, 1)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "certificate",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("rankmax", proc.stderr)


if __name__ == "__main__":
    unittest.main()
