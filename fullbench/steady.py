#!/usr/bin/env python3
"""Steadiness check for the full-table benchmark.

Runs each workload of BENCHMARK.json several times, each with another
seed, and prints for every end-to-end metric the median, the quartiles
and the spread (Q3 - Q1) / median against the metric's bound. A spread
within a third of the bound is steady; within the bound is acceptable.
With --save the medians go to a JSON file; with --compare a second set
is checked against a saved one: no metric's median may be worse than
the saved median by more than its bound.

    python3 fullbench/steady.py [--runs 10] [--workloads a,b]
        [--first-seed 1] [--save set1.json] [--compare set1.json]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]
    saved = {}
    if opts.compare:
        with open(opts.compare) as f:
            saved = json.load(f)

    medians = {}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for i in range(opts.runs):
            result = run_once(bench["command"], workload, opts.first_seed + i,
                              bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload}: run with seed {opts.first_seed + i} failed its checks")
                steady = False
            shares.add((result["failed"], result["attempted"]))
            print(f"{workload} seed {opts.first_seed + i}: " + ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        fail_shares = {f / a for f, a in shares}
        print(f"\n{workload}: {opts.runs} runs, failed share {sorted(fail_shares)}")
        print(f"  {'metric':14s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        medians[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            q1, med, q3 = quartiles(values[name])
            spread = (q3 - q1) / med if med else float("inf")
            medians[workload][name] = med
            if name == "setup_s":
                verdict = "(set-up: spread not bounded)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                steady = False
            if workload in saved:
                old = saved[workload][name]
                worse = (old - med) / old if m["better"] == "higher" else (med - old) / old
                verdict += f"; vs saved {worse:+.1%}"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    steady = False
            print(f"  {name:14s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.2%} {bound:6.2f}  {verdict}")
        if len(fail_shares) > 1:
            print("  failed share differs between runs")
            steady = False

    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(medians, f, indent=2)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
