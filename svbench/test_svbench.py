#!/usr/bin/env python3
"""The benchmark's own test: every workload at its tiny size.

    python3 svbench/test_svbench.py
    python3 -m unittest discover -s svbench    (the same, by discovery)

Builds svbench like run.py does, then checks that each workload prints every
metric BENCHMARK.json names, with its unit, in both the end-to-end and the
traced run; that two runs of one seed give identical digests; that the seed
changes the generated inputs; and that the partitioned parallel workload
gives the same digest at threads=3 as sequentially at threads=0.
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as svrun  # noqa: E402

WORKLOADS = ["fig4", "apps", "scale", "parallel"]
SPEC = json.loads((svrun.ROOT / "BENCHMARK.json").read_text())
BINARY = None  # built once, in setUpModule


def setUpModule():
    global BINARY
    BINARY = svrun.build()


def bench(workload, seed=1, trace="0", threads=None):
    """One tiny run; returns (ledger, result) as parsed JSON."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", trace, "--size", "tiny"]
    if threads is not None:
        argv += ["--threads", str(threads)]
    rc, out = svrun.run(BINARY, argv, stdout=svrun.subprocess.PIPE, text=True)
    if rc != 0:
        raise AssertionError(f"svbench {workload} exited {rc}:\n{out}")
    lines = out.strip().splitlines()
    ledger = [json.loads(l[len("ledger "):]) for l in lines
              if l.startswith("ledger ")]
    return ledger[0], json.loads(lines[-1])


class SvbenchTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_every_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, plain = bench(w, trace="0")
                self.check_metrics(plain, SPEC["end_to_end"])
                self.assertGreater(plain["metrics"]["run_s"]["value"], 0)
                _, traced = bench(w, trace="1")
                self.check_metrics(traced, SPEC["per_layer"])

    def test_two_runs_give_identical_digests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = bench(w, seed=7)
                b, _ = bench(w, seed=7)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["warmup_digest"], b["warmup_digest"])

    def test_seed_picks_the_inputs(self):
        # The seed picks the unit order in fig4 and apps, and the kv
        # request stream, which moves the apps digest.
        for w in ["fig4", "apps"]:
            with self.subTest(workload=w):
                a, _ = bench(w, seed=1)
                b, _ = bench(w, seed=2)
                self.assertNotEqual(a["unit_order"], b["unit_order"])
                self.assertEqual(sorted(a["unit_order"]),
                                 sorted(b["unit_order"]))
        a, _ = bench("apps", seed=1)
        b, _ = bench("apps", seed=2)
        self.assertNotEqual(a["digest"], b["digest"])

    def test_parallel_threads_match_sequential(self):
        par, _ = bench("parallel", threads=3)
        seq, _ = bench("parallel", threads=0)
        self.assertEqual(par["digest"], seq["digest"])

    def test_rejects_bad_flags(self):
        base = ["--workload", "fig4", "--seed", "1", "--seconds", "0",
                "--trace", "0"]
        for extra in [["--bogus", "1"], ["--threads", "2"],
                      ["--size", "huge"]]:
            with self.subTest(flags=extra):
                rc, _ = svrun.run(BINARY, base + extra,
                                  stdout=svrun.subprocess.PIPE,
                                  stderr=svrun.subprocess.PIPE)
                self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
