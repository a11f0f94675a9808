#!/usr/bin/env python3
"""Checks the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds S] [--workloads a,b]
        Runs every workload twice untraced and twice traced on one seed.
        Checks that each run is correct, reports every metric
        BENCHMARK.json names with its unit, and that the exact counters
        and quality metrics repeat bit for bit across the two runs.

    python3 perfbench/selfcheck.py --spread N [--seconds S] [--workloads a,b]
        Runs each workload untraced on seeds 1..N and prints, per
        end-to-end metric, the median and the spread (distance between
        the first and third quartile over the median) against the
        metric's bound.

Run from the root of the repository. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that depend only on the seed, never on timing.
EXACT = {
    "p_dif", "avg_payoff", "assigned_frac", "completion_rate",
    "failed_frac", "hw_threads",
    "vdps.states", "vdps.extensions", "vdps.sets", "vdps.sets_per_state",
    "vdps.slots",
    "algo.br_rounds", "algo.br_evaluations", "algo.br_scanned",
    "algo.br_switches", "algo.switches_per_eval",
    "algo.centers_clean", "algo.centers_warm", "algo.centers_cold",
    "sim.cold_completion_rate",
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result, declared, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correctness gates failed")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0:
        problems.append(f"{label}: attempted {result.get('attempted')}, failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {got.get('unit')}, declared {unit}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def self_check(bench, workloads, seconds):
    tables = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in workloads:
        for trace, declared in tables.items():
            first, second = (run(workload, 7, seconds, trace) for _ in range(2))
            label = f"{workload} trace {trace}"
            problems += check_result(first, declared, label)
            problems += check_result(second, declared, label)
            for name in sorted(EXACT & set(declared)):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{label}: {name} does not repeat ({a} vs {b})")
            print(f"{label}: checked", flush=True)
    return problems


def spread(bench, workloads, seconds, n):
    problems = []
    for workload in workloads:
        values = {}
        for seed in range(1, n + 1):
            for name, m in run(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            verdict = "ok" if share <= m["bound"] / 3 else "WIDE"
            if m["name"] != "setup_s" and share > m["bound"]:
                problems.append(f"{workload}: {m['name']} spread {share:.4f} > bound {m['bound']}")
            print(f"{workload:6} {m['name']:16} median {med:12.6g}  spread {share:7.4f}"
                  f"  bound {m['bound']:5}  {verdict}  "
                  + " ".join(f"{x:.5g}" for x in v), flush=True)
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--spread", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    if args.spread:
        problems = spread(bench, workloads, args.seconds or bench["run_seconds"], args.spread)
    else:
        problems = self_check(bench, workloads, args.seconds or 2)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
