#!/usr/bin/env python3
"""Interleaved A/B of two builds of this repository.

    python3 perfbench/ab.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        [--workloads paper-grid,rack4,serve64] [--pairs 10] \\
        [--seconds S] [--seed-base 1000]

Each checkout is a directory holding BENCHMARK.json, perfbench/ and the
sources; each builds in its own .bench_build/.  Pair i runs seed
seed-base + i on both sides, alternating which side goes first.  Every
run is printed, then one row per end-to-end metric and workload with
both medians and quartiles, the change's win fraction and the verdict
of benchstats.verdict, and whether the two sides printed the same
digest in every pair.  Bounds and directions come from the parent's
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("ab: run failed in %s (exit %d):\n%s"
                 % (checkout, r.returncode, r.stderr[-2000:]))
    digest = benchstats.digest_of_output(lines)
    if digest is None:
        sys.exit("ab: no digest line in the output of %s" % checkout)
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("ab: at least 10 pairs are needed for a verdict")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}

    rows = []
    for wl in workloads:
        runs = {"parent": [], "change": []}
        same_digest = True
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            digests = {}
            for side in order:
                res, digests[side] = run_once(sides[side], wl, seed,
                                              seconds)
                runs[side].append(res)
                print("run %-10s pair %2d seed %d %-6s correct=%s "
                      "failed=%d %s" % (
                          wl, i, seed, side, res["correct"], res["failed"],
                          " ".join("%s=%.6g" % (k, v["value"])
                                   for k, v in res["metrics"].items())),
                      flush=True)
            same_digest = same_digest and \
                digests["parent"] == digests["change"]
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            b = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            verdict, win = benchstats.verdict(a, b, m["better"], m["bound"])
            rows.append((wl, m["name"], benchstats.quartiles(a),
                         benchstats.quartiles(b), win, verdict))
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        print("%s: failed ops parent %d, change %d; identical digests in "
              "every pair: %s" % (wl, failed["parent"], failed["change"],
                                  "yes" if same_digest else "NO"))

    print("\n%-10s %-12s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent med", "parent q1..q3", "change med",
        "change q1..q3", "wins", "verdict"))
    for wl, name, qa, qb, win, verdict in rows:
        print("%-10s %-12s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g "
              "%4.0f%%  %s" % (wl, name, qa[1], qa[0], qa[2], qb[1], qb[0],
                              qb[2], 100 * win, verdict))


if __name__ == "__main__":
    main()
