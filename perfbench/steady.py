#!/usr/bin/env python3
"""Steadiness self-check for the end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/steady.py [--runs 10] [--seed-start 1] [--workloads a,b]

Runs every workload --runs times, each with another seed, through
perfbench/run.py with the run length and bounds of BENCHMARK.json.  For
each end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the interquartile spread as a share
of the median, and the max/min spread.  A metric whose interquartile
spread exceeds its bound is flagged FAIL, one above a third of its bound
WARN; every metric is checked the same way.  It also prints, per
workload, the median ratio of the calibration loop's time with the
inputs loaded to its time before they were read (the "calibration:"
line of each run): a ratio away from 1 would mean the loop that scales
every time depends on the measured process's heap.  Exits 1 when any run fails or any
metric is flagged FAIL.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1200)
    if out.returncode != 0:
        return None, None
    lines = out.stdout.strip().split("\n")
    loops = None
    for line in lines:
        m = re.match(r"calibration: loop median ([0-9.]+) s before the inputs .*, ([0-9.]+) s with them", line)
        if m:
            loops = (float(m.group(1)), float(m.group(2)))
    return json.loads(lines[-1]), loops


def main():
    ap = argparse.ArgumentParser(description="steadiness self-check")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {mt["name"]: mt["bound"] for mt in spec["end_to_end"]}

    bad = False
    for w in workloads:
        values = {name: [] for name in bounds}
        failed = 0
        loop_ratios = []
        for k in range(args.runs):
            seed = args.seed_start + k
            res, loops = run_once(w, seed, spec["run_seconds"])
            if res is None or not res["correct"] or res["failed"]:
                failed += 1
                print("%s seed %d: run failed or incorrect: %s" % (w, seed, res), flush=True)
                continue
            if loops:
                loop_ratios.append(loops[1] / loops[0])
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, seed, "  ".join(
                "%s=%.6g" % (n, res["metrics"][n]["value"]) for n in bounds)), flush=True)
        print("\n== %s: %d runs, %d failed" % (w, args.runs, failed))
        print("  %-14s %12s %12s %12s %9s %9s %7s  %s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound", "flag"))
        for name, vs in values.items():
            if len(vs) < 2:
                bad = True
                print("  %-14s too few runs" % name)
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            flag = "ok"
            if spread > bounds[name]:
                flag = "FAIL"
                bad = True
            elif spread > bounds[name] / 3:
                flag = "WARN"
            print("  %-14s %12.6g %12.6g %12.6g %9.4f %9.4f %7.3f  %s" % (
                name, q2, q1, q3, spread, max(vs) / min(vs) - 1, bounds[name], flag))
        if loop_ratios:
            print("  calibration loop, inputs loaded / before: median %.4f (min %.4f, max %.4f)" % (
                statistics.median(loop_ratios), min(loop_ratios), max(loop_ratios)))
        print(flush=True)
        bad = bad or failed > 0
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
