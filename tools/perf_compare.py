#!/usr/bin/env python3
"""Compares two sets of perfbench results and fails on a regression.

    python3 tools/perf_compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of `perfbench/run.py` runs, one
file per run: the host line, the info line (workload and seed) and the
result line. Untraced runs carry the end-to-end metrics, traced runs the
per-layer ones. Each side needs at least 5 untraced seeds per workload, and
both sides must cover the same workloads on hosts with the same fingerprint;
otherwise the comparison is refused (exit 2).

For every workload and metric it prints both medians, the relative shift of
the change's median, the parent's quartile spread (interquartile range over
median) and how many same-seed pairs the change won. It exits 1 when

  - an end-to-end median is worse than the parent's by more than that
    metric's bound in BENCHMARK.json;
  - a workload's failed/attempted share is higher than at the parent;
  - static_eq10k's ops_per_event differs for a seed run on both sides (it
    depends only on the inputs, so any difference is a change in behaviour).

An end-to-end metric whose parent spread is wider than its bound is
`unresolved` rather than `same`, unless every change run beats every parent
run. Per-layer metrics are reported and never fail the comparison.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_SEEDS = 5
EXACT = {("static_eq10k", "ops_per_event")}


class Refused(Exception):
    pass


def load_run(path):
    host = info = result = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # build chatter that reached stdout
            if not isinstance(obj, dict):
                continue
            if "host" in obj:
                host = obj["host"]
            elif "info" in obj:
                info = obj["info"]
            elif "metrics" in obj:
                result = obj
    if host is None or info is None or result is None:
        raise Refused(f"{path}: not a perfbench/run.py output "
                      "(needs host, info and result lines)")
    return host, info["workload"], info["seed"], result


def load_set(directory, spec):
    """Returns (host, {(workload, traced): {seed: result}})."""
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    hosts = set()
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        host, workload, seed, result = load_run(path)
        hosts.add(json.dumps(host, sort_keys=True))
        traced = any(metric in per_layer for metric in result["metrics"])
        expected = spec["per_layer" if traced else "end_to_end"]
        missing = [m["name"] for m in expected
                   if m["name"] not in result["metrics"]]
        if missing:
            raise Refused(f"{path}: metrics {missing} are missing")
        by_seed = runs.setdefault((workload, traced), {})
        if seed in by_seed:
            raise Refused(f"{directory}: two {workload} runs of seed {seed}")
        by_seed[seed] = result
    if not runs:
        raise Refused(f"{directory}: no runs")
    if len(hosts) > 1:
        raise Refused(f"{directory}: runs from different hosts")
    return hosts.pop(), runs


def quartile_spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def compare_metric(name, better, bound, parent, change):
    """Returns the report row and the verdict for one metric."""
    sign = 1 if better == "higher" else -1
    pv = [run["metrics"][name]["value"] for run in parent.values()]
    cv = [run["metrics"][name]["value"] for run in change.values()]
    pm, cm = statistics.median(pv), statistics.median(cv)
    shift = (cm - pm) / abs(pm) if pm else 0.0
    spread = quartile_spread(pv)
    pairs = sorted(set(parent) & set(change))
    won = sum(1 for seed in pairs
              if sign * (change[seed]["metrics"][name]["value"] -
                         parent[seed]["metrics"][name]["value"]) > 0)
    if bound is None:
        verdict = "layer"
    elif sign * shift < -bound:
        verdict = "worse"
    elif spread > bound:
        # Too noisy to call, unless every change run beats every parent run.
        beats_all = min(sign * v for v in cv) > max(sign * v for v in pv)
        verdict = "better" if beats_all else "unresolved"
    elif sign * shift > bound:
        verdict = "better"
    else:
        verdict = "same"
    row = (f"{name:<40} {pm:>14.6g} {cm:>14.6g} {shift:>+8.1%} "
           f"{spread:>7.1%} {won:>3}/{len(pairs):<3} {verdict}")
    return row, verdict


def compare(parent_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parent_host, parent = load_set(parent_dir, spec)
    change_host, change = load_set(change_dir, spec)
    if parent_host != change_host:
        raise Refused(f"host fingerprints differ:\n  parent {parent_host}\n"
                      f"  change {change_host}")
    if set(parent) != set(change):
        raise Refused("the two sets cover different workloads or traced runs")
    for (workload, traced), runs in parent.items():
        for side in (runs, change[(workload, traced)]):
            if not traced and len(side) < MIN_SEEDS:
                raise Refused(f"{workload}: {len(side)} untraced seeds on a "
                              f"side, at least {MIN_SEEDS} needed")

    failures = []
    print(f"{'workload / metric':<40} {'parent':>14} {'change':>14} "
          f"{'shift':>8} {'p.iqr':>7} {'won':>7} verdict")
    for (workload, traced), parent_runs in sorted(parent.items()):
        change_runs = change[(workload, traced)]
        print(f"== {workload} ({'traced' if traced else 'untraced'}, "
              f"{len(parent_runs)} / {len(change_runs)} runs)")
        metrics = spec["per_layer"] if traced else spec["end_to_end"]
        for metric in metrics:
            row, verdict = compare_metric(
                metric["name"], metric["better"], metric.get("bound"),
                parent_runs, change_runs)
            print(row)
            if verdict == "worse":
                failures.append(f"{workload}/{metric['name']}: median worse "
                                f"than the parent's by more than "
                                f"{metric['bound']:.0%}")
            if (workload, metric["name"]) in EXACT:
                for seed in sorted(set(parent_runs) & set(change_runs)):
                    was = parent_runs[seed]["metrics"][metric["name"]]["value"]
                    now = change_runs[seed]["metrics"][metric["name"]]["value"]
                    if was != now:
                        failures.append(f"{workload}/{metric['name']} seed "
                                        f"{seed}: {was!r} -> {now!r}, must "
                                        "be identical")
        shares = []
        for runs in (parent_runs, change_runs):
            attempted = sum(run["attempted"] for run in runs.values())
            failed = sum(run["failed"] for run in runs.values())
            shares.append(failed / attempted if attempted else 0.0)
        print(f"{'failed/attempted':<40} {shares[0]:>14.6g} {shares[1]:>14.6g}")
        if shares[1] > shares[0]:
            failures.append(f"{workload}: failed share rose from "
                            f"{shares[0]:.6g} to {shares[1]:.6g}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("regression" if failures else "no regression")
    return 1 if failures else 0


def main():
    if len(sys.argv) != 3:
        print("usage: perf_compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    try:
        return compare(sys.argv[1], sys.argv[2])
    except Refused as refusal:
        print(f"refused: {refusal}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
