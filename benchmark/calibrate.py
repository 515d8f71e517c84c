#!/usr/bin/env python3
"""Noise calibration: how far two sets of runs of the SAME code disagree.

Runs every workload of BENCHMARK.json in two interleaved sets (A1 B1 A2 B2 ...),
each run with its own seed, and prints a markdown report: per workload and
end-to-end metric the median and quartiles of each set, the spread (distance
between the first and third quartile as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) and how much worse set B's median
is than set A's. A spread above a third of the metric's bound, or a drift above
half of it, is flagged: fix the workload (window, placement), not the bound.

usage: python3 benchmark/calibrate.py [--runs 10] [--seconds <run_seconds>] [--seed0 1000] [--only <workload>]
Run from the repository root. Writes nothing but its standard output.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--only", default=None, help="calibrate this workload alone")
    args = parser.parse_args()
    contract = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or contract["run_seconds"]
    print(f"Two interleaved sets of {args.runs} runs per workload, {seconds} s windows, "
          f"seeds from {args.seed0}; every run a fresh process.\n")
    print("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | spread A | spread B | B worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    flagged = 0
    for w, workload in enumerate(contract["workloads"]):
        if args.only not in (None, workload["name"]):
            continue
        sets = ([], [])
        for i in range(args.runs):
            for s in (0, 1):
                seed = args.seed0 + 1000 * w + 2 * i + s
                sets[s].append(run(contract["command"], workload["name"], seed, seconds))
                print(f"  {workload['name']} set {'AB'[s]} run {i + 1}/{args.runs} done", file=sys.stderr)
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (a1, a2, a3), (b1, b2, b3) = (quartiles([r[name] for r in runs]) for runs in sets)
            spread_a, spread_b = (a3 - a1) / a2, (b3 - b1) / b2
            worse = (b2 - a2) / a2 if metric["better"] == "lower" else (a2 - b2) / a2
            noisy = name != "setup_s" and max(spread_a, spread_b) > bound / 3
            drifted = abs(worse) > bound / 2
            verdict = "ok" if not (noisy or drifted) else " ".join(
                flag for flag, on in (("SPREAD>bound/3", noisy), ("DRIFT>bound/2", drifted)) if on)
            flagged += verdict != "ok"
            print(f"| {workload['name']} | {name} | {a2:.5g} [{a1:.5g}, {a3:.5g}] | {b2:.5g} [{b1:.5g}, {b3:.5g}] "
                  f"| {spread_a:.2%} | {spread_b:.2%} | {worse:+.2%} | {bound:.0%} | {verdict} |", flush=True)
    print(f"\n{flagged} metric x workload pairs flagged.")


if __name__ == "__main__":
    main()
