#!/usr/bin/env python3
"""The benchmark's own tests, at toy size.

    python3 perfbench/test_bench.py          (from the repository root)

For every workload in BENCHMARK.json, an untraced and a traced run of a
40-client population must:
  - end with the JSON result line, correct, with nothing failed;
  - report exactly the end-to-end (untraced) or per-layer (traced)
    metrics of BENCHMARK.json, each with its unit, and print each one by
    name and unit on its own line;
  - (traced) agree on the reply digest of the untraced run, the
    instrumented run and the in-process replay, and pass the add-up gate.
It also checks that any integer is a seed, however large, that a seed
that is not an integer is refused, and that run.py fails without a
result when only the benchmark's own files are present.
"""

import json
import math
import os
import shutil
import subprocess
import tempfile
import unittest

RESULTS = os.path.join("perfbench", "results")
POPULATION = "40"


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_bench(workload, trace, seed="7"):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", "1", "--trace", str(trace), "--population", POPULATION],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr[-2000:]))
    return out.stdout


class Bench(unittest.TestCase):
    spec = load_spec()

    def check_run(self, workload, trace, expected):
        stdout = run_bench(workload, trace)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], lines[-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in expected))
        for m in expected:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            printed = [l.split() for l in lines[:-1]]
            self.assertIn(m["unit"], [p[-1] for p in printed if p and p[0] == m["name"]],
                          "%s is not printed with its unit" % m["name"])
        return result

    def test_end_to_end(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 0, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, self.spec["per_layer"])
                with open(os.path.join(RESULTS, "%s-seed7-trace1.json" % w["name"])) as f:
                    record = json.load(f)
                digests = record["reply_digests"]
                self.assertEqual(len(set(digests.values())), 1, digests)
                self.assertTrue(record["digests_agree"])
                self.assertTrue(record["addup_pass"])
                for key in ("schema", "git_rev", "date", "host_cores", "ocaml_version",
                            "seed", "parameters"):
                    self.assertIn(key, record)

    def test_any_integer_seed(self):
        # Seeds beyond 63 bits and negative seeds are inputs like any other.
        for seed in ("18446744073709551617", "-3"):
            with self.subTest(seed=seed):
                result = json.loads(run_bench("dial-tcp", 0, seed).strip().splitlines()[-1])
                self.assertTrue(result["correct"])
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "conv-noise", "--seed", "x1",
             "--seconds", "1", "--trace", "0", "--population", POPULATION],
            capture_output=True, text=True, timeout=600)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)

    def test_fails_without_sources(self):
        os.makedirs(RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "_build", "lib", "bin"))
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "conv-tcp", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
