#!/usr/bin/env python3
"""Runs two checkouts of the benchmark in interleaved pairs and compares them.

    # 10 pairs per workload: parent checkout vs change checkout
    python3 bench_e2e/compare.py collect PARENT_DIR CHANGE_DIR --runs 10 \\
        --seed 1 --out pairs.json
    # one row per workload x end-to-end metric
    python3 bench_e2e/compare.py diff pairs.json

`collect` runs each checkout's own bench_e2e/run.py from that checkout's
root, building into its own .bench_build, for the run_seconds of
BENCHMARK.json. Pair i of a workload runs the old side and the new side back
to back at seed SEED + i, and the side that goes first alternates from pair
to pair, so a change of host speed hits both sides of a pair alike. Both
collections go to one file: old and new, each mapping workload -> metric ->
{unit, values, median, q1, q3}, with values[i] of one side paired with
values[i] of the other. Giving one checkout twice measures it against
itself.

`diff` applies the bounds and better-directions of BENCHMARK.json and the
rules of the choosing-metrics method:

  improved    at least 10 pairs ran, the new side wins at least 9 of every
              10 (ties count for neither), and the medians differ by more
              than the old side's quartile spread
  unresolved  the old side's quartile spread, as a share of its median, is
              wider than the bound, unless every new run beats every old run
  regressed   the new median is worse than the old one by more than the bound
  unchanged   otherwise

Exits 1 when any row is regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["broadcast", "archive", "live", "features"]


def summarize(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values * 3)
    return {"unit": unit, "values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def run_once(checkout, workload, seed, seconds):
    """One untraced run of `workload` in `checkout`; its metrics."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench_e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit("%s run in %s failed: %s" % (workload, checkout, result))
    return result["metrics"]


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    seconds = load_spec()["run_seconds"]
    checkouts = {"old": os.path.abspath(args.old),
                 "new": os.path.abspath(args.new)}
    runs = {"old": {}, "new": {}}
    for workload in WORKLOADS:
        for i in range(args.runs):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            for side in order:
                metrics = run_once(checkouts[side], workload, args.seed + i,
                                   seconds)
                for name, metric in metrics.items():
                    runs[side].setdefault(workload, {}).setdefault(
                        name, (metric["unit"], []))[1].append(metric["value"])
            print("%s pair %d/%d done" % (workload, i + 1, args.runs),
                  file=sys.stderr, flush=True)
    out = {"seed": args.seed, "seconds": seconds, "runs": args.runs}
    for side, by_workload in runs.items():
        out[side] = {w: {m: summarize(v, u) for m, (u, v) in ms.items()}
                     for w, ms in by_workload.items()}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def verdict(old, new, bound, lower_is_better):
    def better(a, b):  # a reads better than b
        return a < b if lower_is_better else a > b

    pairs = list(zip(old["values"], new["values"]))
    wins = sum(better(n, o) for o, n in pairs)
    change = new["median"] - old["median"]
    worse = (change if lower_is_better else -change) / old["median"]
    spread = (old["q3"] - old["q1"]) / old["median"]
    if (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
            and abs(change) > old["q3"] - old["q1"]):
        return "improved"
    if spread > bound and not all(better(n, o) for n in new["values"]
                                  for o in old["values"]):
        return "unresolved"
    return "regressed" if worse > bound else "unchanged"


def diff(args):
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    with open(args.pairs) as f:
        pairs = json.load(f)
    old, new = pairs["old"], pairs["new"]
    regressed = False
    print("%-10s %-18s %14s %14s %8s  %s" % (
        "workload", "metric", "old median", "new median", "change", "verdict"))
    for workload in WORKLOADS:
        for name, metric in spec.items():
            if name not in old.get(workload, {}) or name not in new.get(
                    workload, {}):
                continue
            o, n = old[workload][name], new[workload][name]
            v = verdict(o, n, metric["bound"], metric["better"] == "lower")
            regressed |= v == "regressed"
            print("%-10s %-18s %14.6g %14.6g %+7.1f%%  %s" % (
                workload, name, o["median"], n["median"],
                100.0 * (n["median"] - o["median"]) / o["median"], v))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run both checkouts in pairs")
    c.add_argument("old", help="root of the parent's checkout")
    c.add_argument("new", help="root of the change's checkout")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="compare the two sides of a collection")
    d.add_argument("pairs")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
