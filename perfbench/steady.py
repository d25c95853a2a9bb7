#!/usr/bin/env python3
"""Steadiness report over several runs of the benchmark.

Runs the command from BENCHMARK.json once per seed on one workload and
prints, for every metric, the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median. A metric whose
spread exceeds its bound is flagged UNRESOLVED: a difference smaller
than that spread cannot be told from noise.

    python3 perfbench/steady.py --workload hot_fleet --seeds 1,2,3,4,5
    python3 perfbench/steady.py --workload cold_solve --seeds 1-10 --trace 1

Run from the repository root. Raw results are kept in
perfbench/_run/steady-<workload>-trace<T>.json, and each run's report
in perfbench/_run/steady-<workload>-trace<T>-seed<N>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    catalogue = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
        os.makedirs(os.path.join("perfbench", "_run"), exist_ok=True)
        log = os.path.join("perfbench", "_run", "steady-%s-trace%d-seed%d.log" % (
            args.workload, args.trace, seed))
        with open(log, "w") as f:
            f.write(proc.stdout)
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    out = os.path.join("perfbench", "_run", "steady-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)
    print("%-36s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in catalogue:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        if len(values) < 2:
            q1 = q3 = med = values[0]
        else:
            q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = "UNRESOLVED" if spread > bound else ("steady" if spread < bound / 3 else "within bound")
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            m["name"], med, q1, q3, spread, "" if bound is None else "%.2f" % bound, flag))
    if not all(r["correct"] for r in runs):
        sys.exit("some runs reported correct=false")


if __name__ == "__main__":
    main()
