#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs each workload once at its smallest size, then the negative cases: a
perturbed reference value must fail the check, a dropped serve reply must
show up in the error rate, a job the server rejects must be sent again, an SI_* override must not reach the runner, and
a directory without the repository's sources must fail without a result.
Builds the runner first if needed (see run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, env=None, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    """Runs run.py; returns (exit code, last stdout line parsed or None)."""
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last


class Smoke(unittest.TestCase):
    def run_smoke(self, workload, trace):
        rc, res = bench("--workload", workload, "--seed", "0", "--seconds",
                        "0", "--trace", str(trace), "--smoke")
        self.assertEqual(rc, 0)
        self.assertEqual(sorted(res), ["attempted", "correct", "failed",
                                       "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        table = run.load_spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in table))
        return res

    def test_each_workload_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = self.run_smoke(workload, 0)
                for name in ("setup_s", "pass_s", "peak_rss_mb"):
                    self.assertGreater(res["metrics"][name]["value"], 0.0)
                self.run_smoke(workload, 1)


class Negative(unittest.TestCase):
    def test_perturbed_reference_fails(self):
        refs = run.load_refs(os.path.join(HERE, "refs.json"))
        witness = "deck.table2_modulator_lowvdd.witness_vdd"
        refs["deck_verify"]["any_seed"][witness] *= 1.0001
        path = os.path.join(run.build_dir(), "perturbed_refs.json")
        os.makedirs(run.build_dir(), exist_ok=True)
        with open(path, "w") as f:
            json.dump(refs, f)
        rc, res = bench("--workload", "deck_verify", "--seconds", "0",
                        "--refs", path)
        self.assertEqual(rc, 1)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_second_seed_passes_the_references(self):
        rc, res = bench("--workload", "paper_behavioral", "--seed", "1",
                        "--seconds", "0")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])

    def test_dropped_serve_reply_counts_as_failed(self):
        rc, res = bench("--workload", "serve_mix", "--seconds", "0",
                        "--smoke", "--drop-reply", "3")
        self.assertEqual(rc, 1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        record = os.path.join(run.build_dir(), "perfbench-results",
                              "serve_mix-seed0-trace0.json")
        with open(record) as f:
            self.assertGreater(json.load(f)["error_rate"], 0.0)

    def test_rejected_jobs_are_resubmitted(self):
        # One server worker admitting one queued job: the closed loop's
        # connections overrun it, and every rejected job must be sent
        # again until it succeeds.
        rc, res = bench("--workload", "serve_mix", "--seconds", "0",
                        "--smoke", "--trace", "1", "--serve-queue", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertGreater(res["metrics"]["serve.resubmits"]["value"], 0)

    def test_overrides_are_cleared(self):
        env = dict(os.environ, SI_SOLVER="dense", SI_RUNTIME_THREADS="1")
        rc, res = bench("--workload", "transistor_sim", "--seconds", "0",
                        "--smoke", env=env)
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        record = os.path.join(run.build_dir(), "perfbench-results",
                              "transistor_sim-seed0-trace0.json")
        with open(record) as f:
            rec = json.load(f)
        self.assertEqual(rec["cleared_env"], ["SI_RUNTIME_THREADS", "SI_SOLVER"])
        self.assertEqual(rec["resolved"]["threads"], os.cpu_count())

    def test_runner_refuses_overrides(self):
        binary = run.build_runner()
        env = dict(os.environ, SI_MC_BATCH="1")
        rc = subprocess.call([binary, "--workload", "deck_verify", "--seed",
                              "0", "--seconds", "0", "--trace", "0",
                              "--result", os.devnull], env=env,
                             stderr=subprocess.DEVNULL)
        self.assertEqual(rc, 3)

    def test_fails_without_repository_sources(self):
        bare = os.path.join(run.build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        rc, res = bench("--workload", "paper_behavioral", "--seed", "0",
                        "--seconds", "1", "--trace", "0", env=env, cwd=bare,
                        script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main(verbosity=2)
