#!/usr/bin/env python3
"""Perf-regression gate over BENCH_micro.json.

Compares a freshly generated BENCH_micro.json (the candidate, produced
by running `bench/micro_components` in the build tree) against the
committed baseline at the repo root, and exits non-zero when any gated
metric regressed by more than the tolerance (default 15%).

Gated metrics:
  * throughput (higher is better): the current event queue's ops/sec on
    the mixed workload and on each horizon distribution, and the
    end-to-end sweep events/sec;
  * speedup ratios (higher is better): wheel vs seed and wheel vs the
    frozen 4-ary heap, overall and per horizon — ratios are robust to
    runner speed, so they catch real queue regressions even when the CI
    machine differs from the one that produced the baseline;
  * allocation counts (lower is better): wheel allocations per queue op
    must not grow beyond the baseline plus a small absolute slack.

A hard floor is also enforced: the clustered-horizon speedup over the
4-ary heap may never drop below --min-clustered-speedup (default 1.8;
the committed baseline is >= 2x, the floor leaves noise headroom).

With --fleet-sweep, the gate additionally reads a BENCH_sweep.json
produced by `bench/fleet_scale` and enforces an absolute events/sec
floor on every 1024-tenant per-scenario entry (names starting with
--fleet-prefix, default "fleet_t1024"). The floor is deliberately far
below what these scenarios run at (about 1.4M events/sec for io.cost and
1.9M for io.max on a 4-vCPU host, RelWithDebInfo, `--jobs 2`) so it only
trips on gross bookkeeping blow-ups — e.g. a per-cgroup walk going
O(groups) instead of O(depth) — not on runner speed. Events/sec is a
rate of work, not of useful work: when io.max's interior caps stopped
waking every waiting sibling per admission, the io.max scenario fell
from about 6.6M to 1.9M events/sec while its wall time fell from 1.32 s
to 0.38 s, so read it beside events per I/O.
"""

import argparse
import json
import sys

# (dotted path, higher_is_better)
RELATIVE_METRICS = [
    ("event_queue_mixed.current_ops_per_sec", True),
    ("event_queue_mixed.speedup_vs_seed", True),
    ("event_queue_mixed.speedup_vs_heap", True),
    ("event_queue_horizons.uniform.wheel_ops_per_sec", True),
    ("event_queue_horizons.clustered.wheel_ops_per_sec", True),
    ("event_queue_horizons.bimodal.wheel_ops_per_sec", True),
    ("event_queue_horizons.uniform.speedup_vs_heap", True),
    ("event_queue_horizons.clustered.speedup_vs_heap", True),
    ("event_queue_horizons.bimodal.speedup_vs_heap", True),
    ("sweep_end_to_end.events_per_sec", True),
]

# Absolute-slack metrics: candidate must be <= baseline + slack.
ALLOC_METRICS = [
    "event_queue_horizons.uniform.wheel_allocs_per_op",
    "event_queue_horizons.clustered.wheel_allocs_per_op",
    "event_queue_horizons.bimodal.wheel_allocs_per_op",
]
ALLOC_SLACK = 0.001


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed BENCH_micro.json")
    parser.add_argument("--candidate",
                        help="freshly generated BENCH_micro.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--min-clustered-speedup", type=float, default=1.8,
                        help="hard floor for clustered speedup vs the "
                             "4-ary heap (default 1.8)")
    parser.add_argument("--fleet-sweep",
                        help="BENCH_sweep.json from bench/fleet_scale; "
                             "enables the fleet events/sec floor")
    parser.add_argument("--fleet-prefix", default="fleet_t1024",
                        help="per-scenario name prefix the fleet floor "
                             "applies to (default fleet_t1024)")
    parser.add_argument("--min-fleet-events-per-sec", type=float,
                        default=50000.0,
                        help="hard events/sec floor for each matching "
                             "fleet scenario (default 50000)")
    args = parser.parse_args()

    if bool(args.baseline) != bool(args.candidate):
        parser.error("--baseline and --candidate must be given together")
    if not args.baseline and not args.fleet_sweep:
        parser.error("nothing to gate: pass --baseline/--candidate "
                     "and/or --fleet-sweep")

    failures = []
    skipped = []

    baseline = {}
    candidate = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.candidate) as f:
            candidate = json.load(f)

    for dotted, higher_is_better in (RELATIVE_METRICS if args.baseline
                                     else []):
        base = lookup(baseline, dotted)
        cand = lookup(candidate, dotted)
        if base is None or cand is None:
            skipped.append(dotted)
            continue
        if higher_is_better:
            floor = base * (1.0 - args.tolerance)
            ok = cand >= floor
            direction = ">="
            bound = floor
        else:
            ceil = base * (1.0 + args.tolerance)
            ok = cand <= ceil
            direction = "<="
            bound = ceil
        status = "ok  " if ok else "FAIL"
        print(f"{status} {dotted}: baseline {base:.3f}, "
              f"candidate {cand:.3f} (need {direction} {bound:.3f})")
        if not ok:
            failures.append(dotted)

    alloc_counting = candidate.get("alloc_counting", False) and \
        baseline.get("alloc_counting", False)
    for dotted in ALLOC_METRICS if args.baseline else []:
        base = lookup(baseline, dotted)
        cand = lookup(candidate, dotted)
        if not alloc_counting or base is None or cand is None:
            skipped.append(dotted)
            continue
        ceil = base + ALLOC_SLACK
        ok = cand <= ceil
        status = "ok  " if ok else "FAIL"
        print(f"{status} {dotted}: baseline {base:.6f}, "
              f"candidate {cand:.6f} (need <= {ceil:.6f})")
        if not ok:
            failures.append(dotted)

    if args.baseline:
        clustered = lookup(candidate,
                           "event_queue_horizons.clustered.speedup_vs_heap")
        if clustered is None:
            skipped.append("clustered speedup floor")
        else:
            ok = clustered >= args.min_clustered_speedup
            status = "ok  " if ok else "FAIL"
            print(f"{status} clustered speedup floor: {clustered:.3f} "
                  f"(need >= {args.min_clustered_speedup:.3f})")
            if not ok:
                failures.append("clustered speedup floor")

    if args.fleet_sweep:
        with open(args.fleet_sweep) as f:
            sweep = json.load(f)
        matched = [p for p in sweep.get("per_scenario", [])
                   if p.get("name", "").startswith(args.fleet_prefix)]
        if not matched:
            print(f"FAIL fleet floor: no per_scenario entries match "
                  f"prefix '{args.fleet_prefix}' in {args.fleet_sweep}")
            failures.append("fleet scenarios present")
        for prof in matched:
            name = prof["name"]
            eps = prof.get("events_per_sec", 0)
            ok = eps >= args.min_fleet_events_per_sec
            status = "ok  " if ok else "FAIL"
            print(f"{status} fleet events/sec floor: {name} {eps:.0f} "
                  f"(need >= {args.min_fleet_events_per_sec:.0f})")
            if not ok:
                failures.append(f"fleet floor {name}")

    for dotted in skipped:
        print(f"skip {dotted}: missing in baseline or candidate")

    if failures:
        print(f"\nperf gate FAILED: {len(failures)} metric(s) regressed "
              f"beyond tolerance: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
