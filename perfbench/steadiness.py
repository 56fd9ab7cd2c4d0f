#!/usr/bin/env python3
"""Steadiness self-check: is the benchmark steady enough for its bounds?

    python3 perfbench/steadiness.py --workload <name> [--runs 10] [--sets 2]
        [--gap 60] [--seconds <run_seconds>] [--trace 0]

Runs perfbench/run.py `--runs` times per set, with seeds 1, 2, ...,
for `--sets` sets separated by `--gap` seconds.  For every metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median, the figure BENCHMARK.json's bound must cover) and the
set-to-set change of the median, signed so that positive is worse.  A flag
column marks a spread above a third of the bound (`~`) or above the bound
(`!`), and a set-to-set worsening beyond the bound (`W`).  Exits 1 if any
`!` or `W` was printed.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=60.0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = []
    for s in range(args.sets):
        if s:
            time.sleep(args.gap)
        runs = []
        for i in range(args.runs):
            res = one_run(args.workload, 1 + i, args.seconds,
                          args.trace)
            runs.append(res)
            print(f"set {s + 1} run {i + 1}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        sets.append(runs)

    bad = False
    print(f"{'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'worse':>8} {'bound':>6} flag")
    for name in sets[0][0]["metrics"]:
        spec = specs.get(name, {})
        bound = spec.get("bound")
        sign = -1.0 if spec.get("better") == "higher" else 1.0
        first_median = None
        for s, runs in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worse = 0.0
            if first_median is None:
                first_median = med
            elif first_median:
                worse = sign * (med - first_median) / first_median
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag += "!"
                elif spread > bound / 3:
                    flag += "~"
            if bound is not None and worse > bound:
                flag += "W"
            bad = bad or "!" in flag or "W" in flag
            print(f"{name:28} {s + 1:>3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {worse:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
