#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_bench.py

Builds rcbench like run.py does and drives it with --quick (windows cut to
a tenth) so the whole suite takes well under a minute.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
EXE = None


def harness(*args):
    """Runs rcbench; returns (exit code, record line, result line)."""
    p = subprocess.run([EXE, *args], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True,
                       env=run.clean_env(), timeout=120)
    lines = p.stdout.splitlines()
    return p.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def quick(workload, seed, trace=0, *extra):
    return harness("--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace), "--quick", *extra)


class SpecTest(unittest.TestCase):
    def test_names_are_plain(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for n in names:
            self.assertTrue(NAME.fullmatch(n) and len(n) <= 64, n)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics_have_unit_and_direction(self):
        for m in SPEC["end_to_end"]:
            self.assertTrue(m["unit"], m["name"])
            self.assertIn(m["better"], ("higher", "lower"), m["name"])
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class HarnessTest(unittest.TestCase):
    def assert_metrics(self, result, spec):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec})

    def test_timed_run_prints_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            rc, _, res = quick(w, 1)
            self.assertEqual(rc, 0, w)
            self.assertTrue(res["correct"], w)
            self.assert_metrics(res, SPEC["end_to_end"])
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")
            self.assertEqual(res["metrics"]["pass_frac"]["value"], 1.0)

    def test_traced_run_prints_every_per_layer_metric(self):
        for w in run.WORKLOADS:
            rc, _, res = quick(w, 1, 1)
            self.assertEqual(rc, 0, w)
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0)
            self.assert_metrics(res, SPEC["per_layer"])

    def test_planted_digest_mismatch_fails_the_run(self):
        rc, _, res = quick("fabric_8x8_saturated", 1, 0, "--plant-mismatch")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["pass_frac"]["value"], 1.0)

    def test_seed_reaches_the_simulation(self):
        for w in run.WORKLOADS:
            a = quick(w, 1)[1]["digest"]
            self.assertEqual(a, quick(w, 1)[1]["digest"], w)
            self.assertNotEqual(a, quick(w, 2)[1]["digest"], w)

    def test_saturation_stamp(self):
        self.assertTrue(quick("fabric_8x8_saturated", 1)[1]["saturated"])
        self.assertFalse(quick("fabric_16x16_light", 1)[1]["saturated"])


if __name__ == "__main__":
    EXE = run.build()
    if EXE is None:
        sys.exit("rcbench did not build")
    unittest.main()
