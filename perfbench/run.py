#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload portal-report --seed 1 --seconds 10 --trace 0

It builds the generator and the measured program from source with dune,
writes the workload's inputs for the seed into .bench_build/, runs the
measured process on those files, and prints its output; the last line is
the JSON result ({"correct", "attempted", "failed", "metrics"}).  With
--trace 1 the measured process is the traced run and prints the
per-layer table before the result.  Exits non-zero without a result
when the build, the generator or the measured process fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("portal-report", "portal-bulk", "wide-shapes", "portal-edits")
BUILD_TIMEOUT = 850
GEN_TIMEOUT = 120
BENCH_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Run cmd to completion (killing it on timeout); its stdout goes to
    our stderr unless captured."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr, stderr=sys.stderr, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        fail("dune not found")
    run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/gen.exe", "./perfbench/bench.exe"],
        BUILD_TIMEOUT,
    )
    return os.path.join("_build", "default", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    inputs = os.path.join(".bench_build", "inputs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        run([os.path.join(exe, "gen.exe"), args.workload, str(args.seed), inputs], GEN_TIMEOUT)
        out = run(
            [os.path.join(exe, "bench.exe"), args.workload, inputs, str(args.seconds), str(args.trace)],
            BENCH_TIMEOUT,
            capture=True,
        )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail("malformed result line: " + lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
