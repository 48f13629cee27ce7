#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 flowbench/selftest.py

They check that
  - the stage hook leaves the output digests of ex1-4bit unchanged, and the
    time it charges to stages adds up to the traced compile (flowbench.exe
    --selftest);
  - on every workload and in both modes the emitted metric names and units
    are exactly the ones BENCHMARK.json declares;
  - no metric is a constant stand-in: run on two different design sets,
    every metric changes, except the documented ones that stay 0 because
    the workload never runs that layer, and the failure/retry counts,
    which stay 0 on designs that compile cleanly.

Small design sets and one-second loops keep the whole run under a minute.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Small design sets per workload: a subset and a superset.
DESIGNS = {
    "paper-suite": ("ex1_small", "ex1_small,c5315"),
    "map-stress": ("ex1_small", "ex1_small,c5315"),
    "arch-sweep": ("crc8", "crc8,sorter"),
}

# Layers a workload never runs read 0 there (README.md, "Idle layers").
PLACE_ROUTE = {
    "place.s", "place.fast_s", "place.detailed_s", "place.alloc_mb",
    "place.moves_tried", "place.accept_ratio", "place.temperature_steps",
    "place.fast_tries", "place.screen_pass_ratio", "place.hpwl",
    "route.s", "route.alloc_mb", "route.heap_pops", "route.nodes_expanded",
    "route.nets_rerouted", "route.astar_pruned", "route.pathfinder_iters",
    "route.channel_factor", "route.wirelength", "bitstream.s",
    "bitstream.bytes",
}
EXPLORE_POOL = {"explore.width_search_s", "explore.route_heap_pops",
                "explore.min_width_sum", "pool.efficiency"}
IDLE = {
    "paper-suite": EXPLORE_POOL,
    "map-stress": EXPLORE_POOL | PLACE_ROUTE,
    "arch-sweep": set(),
}
# Counts of failures and retries, and the ratios and factors they drive:
# 0 (or 1 for a ratio or factor) on designs that compile without any.
CLEAN_RUN = {"flow.degradations", "flow.mapping_retries",
             "route.channel_factor", "place.screen_pass_ratio"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def metrics(workload, designs, trace):
    out = run.run_program(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace),
                           "--designs", designs], timeout=170)
    check(out["correct"] and out["failed"] == 0,
          "%s %s trace %d: every gate passed" % (workload, designs, trace))
    return out["metrics"]


def main():
    run.build()
    r = subprocess.run([run.EXE, "--selftest"], cwd=run.ROOT)
    check(r.returncode == 0, "stage hook keeps fingerprints; stage times add up")
    for workload, (small, large) in DESIGNS.items():
        for trace in (0, 1):
            declared = run.declared_metrics(trace)
            a = metrics(workload, small, trace)
            b = metrics(workload, large, trace)
            for m in (a, b):
                check({n: v["unit"] for n, v in m.items()} == declared,
                      "%s trace %d: names and units equal BENCHMARK.json"
                      % (workload, trace))
            for name in sorted(declared):
                va, vb = a[name]["value"], b[name]["value"]
                if name in IDLE[workload]:
                    check(va == 0 and vb == 0,
                          "%s: %s is 0 (layer idle)" % (workload, name))
                elif name in CLEAN_RUN and va == vb:
                    check(va in (0, 1), "%s: %s is %g on clean compiles"
                          % (workload, name, va))
                else:
                    check(va != vb, "%s: %s responds to the input (%g vs %g)"
                          % (workload, name, va, vb))
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
