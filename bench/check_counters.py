#!/usr/bin/env python3
"""Check traced perfbench runs against the committed counter file.

Run from the root of a source checkout, after one traced seed-1 run per
workload:

    for w in portal-report portal-bulk wide-shapes portal-edits; do
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 \\
        > "perfbench-$w.txt"
    done
    python3 bench/check_counters.py perfbench-*.txt

Each file's last line is perfbench's JSON result; the workload is read
from the file name (perfbench-<workload>.txt).  Every workload named in
the counter file must be given.  The script fails (exit 1) when

  - a workload disagrees with its ground truth or failed an operation,
  - its unattributed residual reaches 5 % of the traced wall time,
  - portal-bulk's freeze takes half the time of interning or more (a
    same-run ratio, so the runner's speed cancels; a freeze that went
    back to comparison-sorting the triples reads about 1 — E17), or
  - a counter leaves its band around the committed value: ±2 %, and for
    allocation (*.alloc_mw) at least ±0.6 Mw.  perfbench reads
    allocation through Gc.quick_stat, which on OCaml 5.1 counts minor
    words only at minor collections, so a stage boundary is exact only
    to within one 256 Kw minor heap.

With --write it records the runs' values as the new counter file
instead: the exact work counts, and the allocation of every stage in
ALLOC_STAGES that allocated at least 1 Mw.  A change that moves a
counter regenerates the file and says why in CHANGES.md.
"""

import argparse
import json
import os
import re
import sys

COUNTS = (
    "deriv.steps",
    "sorbe.counter_updates",
    "dfa.states",
    "validate.evaluations",
    "incremental.frontier_pairs",
)
# Stages that run once per traced run.  Stages entered once per edit or
# per harness step (incremental.apply, incremental.query, harness.*) swing
# by whole minor heaps when unrelated code moves a collection, so they
# are left out.
ALLOC_STAGES = (
    "shexc.parse",
    "turtle.parse",
    "ntriples.lex",
    "columnar.intern",
    "columnar.freeze",
    "incremental.warm",
    "validate.verdict",
    "report.typing",
    "report.render",
    "neigh.extract",
    "match.replay",
)
ALLOC_FLOOR_MW = 1.0
REL_BAND = 0.02
ABS_BAND_MW = 0.6
RESIDUAL_BOUND = 0.05
FREEZE_INTERN_RATIO_BOUND = 0.5
DEFAULT_COUNTERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_counters.json")


def read_result(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise SystemExit("%s: empty" % path)
    return json.loads(lines[-1])


def workload_of(path):
    m = re.fullmatch(r"perfbench-(.+)\.txt", os.path.basename(path))
    if not m:
        raise SystemExit("%s: expected a perfbench-<workload>.txt file" % path)
    return m.group(1)


def band(name, value):
    width = REL_BAND * abs(value)
    if name.endswith(".alloc_mw"):
        width = max(width, ABS_BAND_MW)
    return width


def recorded(metrics):
    out = {}
    for name in COUNTS:
        # incremental.frontier_pairs is a mean over edits, not an integer.
        v = metrics[name]
        out[name] = int(v) if float(v).is_integer() else round(v, 4)
    for stage in ALLOC_STAGES:
        name = stage + ".alloc_mw"
        if metrics[name] >= ALLOC_FLOOR_MW:
            out[name] = round(metrics[name], 3)
    return out


def check(workload, result, expected):
    """Return a list of failure messages for one workload's run."""
    errors = []
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if result["correct"] is not True:
        errors.append("disagrees with its ground truth")
    if result["failed"] != 0:
        errors.append("%d of %d operations failed" % (result["failed"], result["attempted"]))
    if m["residual_s"] >= RESIDUAL_BOUND * m["trace.wall_s"]:
        errors.append(
            "residual %.4f s is %.1f %% of the traced wall %.4f s (bound %.0f %%)"
            % (m["residual_s"], 100 * m["residual_s"] / m["trace.wall_s"], m["trace.wall_s"],
               100 * RESIDUAL_BOUND)
        )
    if workload == "portal-bulk":
        ratio = m["columnar.freeze_s"] / m["columnar.intern_s"]
        if ratio >= FREEZE_INTERN_RATIO_BOUND:
            errors.append("freeze/intern time ratio %.2f (bound %.2f)" % (ratio, FREEZE_INTERN_RATIO_BOUND))
    for name, want in sorted(expected.items()):
        if name not in m:
            errors.append("%s: missing from the run" % name)
            continue
        got, width = m[name], band(name, want)
        if abs(got - want) > width:
            errors.append("%s: %g, committed %g (band ±%g)" % (name, got, want, width))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("runs", nargs="+", help="perfbench-<workload>.txt outputs of traced runs")
    ap.add_argument("--counters", default=DEFAULT_COUNTERS, help="counter file (default: %(default)s)")
    ap.add_argument("--write", action="store_true", help="record the runs as the new counter file")
    args = ap.parse_args()

    results = {workload_of(p): read_result(p) for p in args.runs}
    if args.write:
        doc = {
            "seed": 1,
            "note": "seed-1 traced perfbench values; checked by bench/check_counters.py",
            "workloads": {
                w: recorded({k: v["value"] for k, v in r["metrics"].items()})
                for w, r in sorted(results.items())
            },
        }
        with open(args.counters, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s for %s" % (args.counters, ", ".join(sorted(results))))
        return 0

    with open(args.counters) as f:
        committed = json.load(f)["workloads"]
    missing = sorted(set(committed) - set(results))
    if missing:
        print("no run given for: " + ", ".join(missing), file=sys.stderr)
        return 1
    failed = False
    for w in sorted(results):
        errors = check(w, results[w], committed.get(w, {}))
        if w not in committed:
            errors.append("not in %s" % args.counters)
        m = results[w]["metrics"]
        if errors:
            failed = True
            for e in errors:
                print("%s: %s" % (w, e), file=sys.stderr)
        else:
            print(
                "%s: %d ops, 0 failed, residual %.3f s of %.3f s, %d counters in band"
                % (w, results[w]["attempted"], m["residual_s"]["value"], m["trace.wall_s"]["value"],
                   len(committed[w]))
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
