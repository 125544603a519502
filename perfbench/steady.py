#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload --runs times, each run with its own seed,
alternating the order of the workloads between rounds, and prints for
each end-to-end metric its median, quartiles and spread (the distance
between the quartiles as a share of the median) against the metric's
bound. Then it runs each workload traced, twice, on a fixed seed and a
fixed number of passes, and asserts that the deterministic per-layer
counts repeat exactly.

Exits non-zero when a run fails or is incorrect, when a spread exceeds
its bound, or when a deterministic count differs between the two traced
runs.

    python3 perfbench/steady.py                       # 5 rounds, all workloads
    python3 perfbench/steady.py --runs 10 --workloads fuzz verdict
    python3 perfbench/steady.py --runs 0              # only the count check
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Figures a run prints on its `detail` line that are not in
# BENCHMARK.json: workload-specific latencies are gated with these
# bounds, the rest must hold exactly.
DETAIL_BOUNDS = {"cold_ms.p50": 0.25, "restart_ms.p50": 0.25}
DETAIL_EXACT = {"failed_ratio": 0.0, "kill_ratio": 1.0}

# Counts that must repeat exactly for a fixed seed and number of passes.
# `explore.states` itself is exempt: an exploration that stops at the
# first race with more than one worker visits a schedule-dependent
# number of states. `explore.states_exhaustive` counts only the
# explorations that ran to the end.
DETERMINISTIC = [
    "cache.hits",
    "cache.misses",
    "cache.disk_hits",
    "cache.rejected",
    "cache.cert_hits",
    "cache.cert_misses",
    "transval.obligations",
    "rg_cert.summaries",
    "sepcomp.obligations",
    "explore.states_exhaustive",
    "explore.truncated",
]

# Passes of the fixed-work traced runs: one whole cycle of edits for
# sepbuild, one pass over the corpus or window for verdict and fuzz.
COUNT_PASSES = {"sepbuild": 20, "serve": 50, "verdict": 1, "fuzz": 1}


def run(cmd, workload, seed, seconds, trace, passes=None):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    if passes is not None:
        args += ["--passes", str(passes)]
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next((json.loads(l[len("detail "):]) for l in lines
                   if l.startswith("detail ")), {})
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}\n"
                 f"{p.stderr[-2000:]}")
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(bench, cmd, workloads, runs, seconds, seed0):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    ok = True
    for r in range(runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result, detail = run(cmd, w, seed0 + r, seconds, 0)
            metrics = dict(result["metrics"])
            metrics.update({k: v for k, v in detail.items()
                            if k in DETAIL_BOUNDS or k in DETAIL_EXACT})
            for k, m in metrics.items():
                values[w].setdefault(k, []).append(m["value"])
            print(f"  round {r + 1}/{runs} {w:<9} " + "  ".join(
                f"{k}={result['metrics'][k]['value']:.4g}" for k in bounds),
                flush=True)
    if runs < 2:
        return ok
    print(f"\n{'workload':<9} {'metric':<15} {'unit':<6} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for k, xs in values[w].items():
            if k in DETAIL_EXACT:
                good = all(x == DETAIL_EXACT[k] for x in xs)
                ok &= good
                print(f"{w:<9} {k:<15} {'':<6} {statistics.median(xs):>11.4g} "
                      f"{'':>11} {'':>11} {'':>7} {'exact':>6}"
                      + ("" if good else "  FAIL"))
                continue
            unit = bounds[k]["unit"] if k in bounds else "ms"
            bound = bounds[k]["bound"] if k in bounds else DETAIL_BOUNDS[k]
            q1, q2, q3, s = spread(xs)
            good = s <= bound
            ok &= good
            note = "" if good else "  FAIL"
            print(f"{w:<9} {k:<15} {unit:<6} {q2:>11.4f} {q1:>11.4f} "
                  f"{q3:>11.4f} {s:>7.3f} {bound:>6.2f}{note}")
    return ok


def exact_counts(cmd, workloads, seed):
    ok = True
    print("\nexact per-layer counts (two traced runs, seed "
          f"{seed}, fixed passes):")
    for w in workloads:
        counts = []
        for _ in range(2):
            run(cmd, w, seed, 1, 1, COUNT_PASSES[w])
            path = os.path.join(ROOT, "perfbench", "out", f"trace-{w}-{seed}.json")
            with open(path) as f:
                counts.append(json.load(f)["trace"]["counts"])
        a, b = ({k: c.get(k, 0) for k in DETERMINISTIC} for c in counts)
        same = a == b
        ok &= same
        shown = ", ".join(f"{k}={v}" for k, v in a.items() if v)
        print(f"  {w:<9} {'repeat' if same else 'DIFFER'}: {shown}")
        if not same:
            print(f"    first  {a}\n    second {b}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    cmd = bench["command"]
    ok = steadiness(bench, cmd, args.workloads, args.runs, args.seconds, args.seed)
    ok &= exact_counts(cmd, args.workloads, args.seed)
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
