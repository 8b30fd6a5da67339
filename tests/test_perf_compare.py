#!/usr/bin/env python3
"""Self-test of tools/perf_compare.py on synthetic perfbench/run.py outputs.

    python3 tests/test_perf_compare.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "perf_compare.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
HOST = {"nproc": 4, "hardware_concurrency": 4, "cpu_model": "test cpu",
        "compiler": "GNU 12.2.0", "build_type": "Release"}
WORKLOADS = ("static_eq10k", "drift_churn_eq2k")
SEEDS = (1, 2, 3, 4, 5)


def make_run(workload, seed, traced):
    metrics = {}
    for metric in SPEC["per_layer" if traced else "end_to_end"]:
        # A 1% step between seeds: a tight spread, well inside every bound.
        value = 100.0 * (1 + 0.01 * (seed - 3))
        if metric["name"] == "ops_per_event":
            value = 72.5 + seed / 64  # exact per seed, as perfbench's is
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"host": dict(HOST), "workload": workload, "seed": seed,
            "result": {"correct": True, "attempted": 100000, "failed": 0,
                       "metrics": metrics}}


def make_set():
    runs = [make_run(w, s, False) for w in WORKLOADS for s in SEEDS]
    return runs + [make_run(w, 1, True) for w in WORKLOADS]


def find(runs, workload, seed, traced=False):
    for run in runs:
        names = run["result"]["metrics"]
        if (run["workload"], run["seed"]) == (workload, seed) and (
                "events_per_sec" not in names) == traced:
            return run
    raise KeyError((workload, seed, traced))


class PerfCompareTest(unittest.TestCase):
    def compare(self, parent, change):
        with tempfile.TemporaryDirectory() as scratch:
            for side, runs in (("parent", parent), ("change", change)):
                directory = os.path.join(scratch, side)
                os.mkdir(directory)
                for index, run in enumerate(runs):
                    path = os.path.join(directory, f"run{index}.out")
                    with open(path, "w", encoding="utf-8") as out:
                        out.write(json.dumps({"host": run["host"]}) + "\n")
                        info = {"workload": run["workload"],
                                "seed": run["seed"]}
                        out.write(json.dumps({"info": info}) + "\n")
                        out.write(json.dumps(run["result"]) + "\n")
            done = subprocess.run(
                [sys.executable, TOOL, os.path.join(scratch, "parent"),
                 os.path.join(scratch, "change")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                check=False)
        return done.returncode, done.stdout

    def test_identical_sets_pass(self):
        code, out = self.compare(make_set(), make_set())
        self.assertEqual(code, 0, out)
        self.assertIn("no regression", out)
        self.assertNotIn("unresolved", out)

    def test_slower_events_per_sec_fails_naming_the_metric(self):
        change = make_set()
        for seed in SEEDS:
            metric = find(change, "static_eq10k", seed)["result"]["metrics"]
            metric["events_per_sec"]["value"] *= 0.7
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL static_eq10k/events_per_sec", out)
        self.assertNotIn("FAIL drift_churn_eq2k", out)

    def test_changed_ops_per_event_of_one_seed_fails(self):
        change = make_set()
        metric = find(change, "static_eq10k", 4)["result"]["metrics"]
        metric["ops_per_event"]["value"] += 1 / 1024
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL static_eq10k/ops_per_event seed 4", out)

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = make_set()
        for seed, scale in zip(SEEDS, (0.5, 0.8, 1.0, 1.2, 1.5)):
            metric = find(parent, "drift_churn_eq2k", seed)["result"]["metrics"]
            metric["setup_s"]["value"] = 100.0 * scale
        code, out = self.compare(parent, make_set())
        self.assertEqual(code, 0, out)
        rows = [line for line in out.splitlines() if "unresolved" in line]
        self.assertEqual(len(rows), 1, out)
        self.assertTrue(rows[0].startswith("setup_s"), out)

    def test_mismatched_hosts_are_refused(self):
        change = make_set()
        for run in change:
            run["host"]["cpu_model"] = "another cpu"
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 2, out)
        self.assertIn("refused: host fingerprints differ", out)

    def test_higher_failed_share_fails(self):
        change = make_set()
        find(change, "drift_churn_eq2k", 2)["result"]["failed"] = 1
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL drift_churn_eq2k: failed share rose", out)

    def test_too_few_seeds_are_refused(self):
        change = [run for run in make_set() if run["seed"] != 5]
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 2, out)
        self.assertIn("at least 5 needed", out)

    def test_per_layer_metrics_never_fail(self):
        change = make_set()
        metric = find(change, "static_eq10k", 1, traced=True)
        metric["result"]["metrics"]["tree.match_ns_per_event"]["value"] *= 3
        code, out = self.compare(make_set(), change)
        self.assertEqual(code, 0, out)
        self.assertRegex(out, r"tree\.match_ns_per_event .* \+200\.0% .* layer")


if __name__ == "__main__":
    unittest.main()
