#!/usr/bin/env python3
"""Summarises a traced benchmark run, layer by layer.

Reads perfbench/out/trace-<workload>-<seed>.json (written by a run with
--trace 1) and prints, for every span name, the number of calls, the
total and self time (a span's duration minus the part of it that its
child spans cover) and the median call; then the run's counts and the
ratios derived from them. When perfbench/out/e2e-<workload>-<seed>.json
from an untraced run of the same workload and seed exists, it also
prints the tracing overhead: the traced run's end-to-end figures
against the untraced ones.

    cargo run --release --manifest-path perfbench/Cargo.toml -- \\
        --workload sepbuild --seed 1 --seconds 25 --trace 0
    cargo run --release --manifest-path perfbench/Cargo.toml -- \\
        --workload sepbuild --seed 1 --seconds 25 --trace 1
    python3 perfbench/trace_summary.py sepbuild 1
"""

import json
import os
import statistics
import sys
from collections import defaultdict

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
                for c in children[s["id"]]]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = s["end_ns"] - s["start_ns"] - covered(kids)
    return out


def ratio(num, den):
    return f"{num / den:.4f}  ({num} / {den})"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    workload, seed = sys.argv[1], sys.argv[2]
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json")) as f:
        doc = json.load(f)
    spans, counts = doc["trace"]["spans"], doc["trace"]["counts"]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    print(f"{workload} seed {seed}: {len(spans)} spans")
    print(f"{'span':<20} {'calls':>7} {'total_ms':>11} {'self_ms':>11} "
          f"{'self%':>6} {'median_ms':>10}")
    grand = sum(selfs.values())
    for name, ss in sorted(by_name.items(),
                           key=lambda kv: -sum(selfs[s["id"]] for s in kv[1])):
        durs = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in ss]
        self_ms = sum(selfs[s["id"]] for s in ss) / 1e6
        print(f"{name:<20} {len(ss):>7} {sum(durs):>11.2f} {self_ms:>11.2f} "
              f"{100 * self_ms * 1e6 / grand if grand else 0:>6.1f} "
              f"{statistics.median(durs):>10.4f}")

    print("\ncounts")
    for k, v in sorted(counts.items()):
        print(f"  {k:<28} {v}")

    c = defaultdict(int, counts)
    served = c["cache.hits"] + c["cache.disk_hits"] + c["cache.misses"]
    certs = c["cache.cert_hits"] + c["cache.cert_misses"]
    explore_ms = sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
                     if s["name"] in ("race.drf", "race.npdrf", "refine.traces"))
    print("\nratios")
    if served:
        print(f"  cache hit ratio (memory + disk) {ratio(c['cache.hits'] + c['cache.disk_hits'], served)}")
        print(f"  rejected / served               {ratio(c['cache.rejected'], served)}")
    if certs:
        print(f"  certificate hit ratio           {ratio(c['cache.cert_hits'], certs)}")
    if explore_ms:
        print(f"  explore states/s                {c['explore.states'] / (explore_ms / 1e3):.0f}"
              f"  ({c['explore.states']} states / {explore_ms / 1e3:.3f} s)")
        print(f"  exhaustive share of states      {ratio(c['explore.states_exhaustive'], c['explore.states'])}")

    plain = os.path.join(OUT, f"e2e-{workload}-{seed}.json")
    if not os.path.exists(plain):
        print(f"\nno untraced run at {plain}: tracing overhead not computed")
        return
    with open(plain) as f:
        untraced = json.load(f)["detail"]
    traced = doc["detail"]
    print("\ntracing overhead (traced vs untraced end-to-end)")
    for k in ("ops_per_s", "op_ms.p50", "op_ms.p90"):
        t, u = traced[k]["value"], untraced[k]["value"]
        print(f"  {k:<12} traced {t:>12.4f}  untraced {u:>12.4f}  "
              f"traced/untraced {t / u if u else float('nan'):.3f}")


if __name__ == "__main__":
    main()
