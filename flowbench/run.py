#!/usr/bin/env python3
"""Compile-latency benchmark of the NanoMap Fig. 2 flow.

Builds flowbench.exe from the source tree with dune, runs one workload,
checks that the emitted metric names and units are the ones BENCHMARK.json
declares, reports which output digests moved against the fingerprint
ledger (ledger.json, next to this file) and prints the result as the last
line of standard output:

  python3 flowbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Exits nonzero without a result line when the build fails, the program
fails, or the metric set does not match BENCHMARK.json. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "flowbench", "flowbench.exe")
LEDGER = os.path.join(HERE, "ledger.json")
WORKLOADS = ("paper-suite", "map-stress", "arch-sweep")


def fail(msg):
    print("flowbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark (and the libraries it links) in .bench_build."""
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./flowbench/flowbench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_program(args, timeout):
    """Run flowbench.exe; echo its report and return its final JSON line."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("flowbench.exe: %s" % e)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0:
        fail("flowbench.exe exited with %d" % r.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("flowbench.exe printed no result")


def update_ledger(workload, seed, digests):
    """Print which output digests moved for this (workload, seed), then
    record the current ones. A moved digest is information, not a failure:
    a change that alters an output on purpose says so."""
    try:
        with open(LEDGER) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    known = ledger.setdefault(workload, {}).setdefault(str(seed), {})
    moved, new, same = [], [], 0
    for design, parts in sorted(digests.items()):
        old = known.get(design, {})
        for part, h in sorted(parts.items()):
            if part not in old:
                new.append("%s/%s" % (design, part))
            elif old[part] != h:
                moved.append("%s/%s %s -> %s" % (design, part, old[part][:8], h[:8]))
            else:
                same += 1
        known[design] = parts
    print("ledger %s seed %s: %d digest(s) unchanged, %d new, %d moved"
          % (workload, seed, same, len(new), len(moved)))
    for m in moved:
        print("  moved: " + m)
    tmp = LEDGER + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, LEDGER)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    declared = declared_metrics(a.trace)
    build()
    out = run_program(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace)],
                      timeout=175)
    emitted = {n: m["unit"] for n, m in out["metrics"].items()}
    if emitted != declared:
        fail("emitted metrics differ from BENCHMARK.json: %s"
             % sorted(set(emitted.items()) ^ set(declared.items())))
    update_ledger(a.workload, a.seed, out["digests"])
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))


if __name__ == "__main__":
    main()
