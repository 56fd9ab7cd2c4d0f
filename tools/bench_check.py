#!/usr/bin/env python3
"""Hot-path benchmark regression gate.

Runs the google-benchmark binaries (bench_partitioners, bench_amr,
bench_clustering, bench_faults and bench_scale by default), writes the raw
measurements to BENCH_pr.json, and compares them
against the committed baseline (tools/bench_baseline.json).

Raw nanoseconds are useless across machines, so each benchmark's time is
normalized by the geometric mean of all benchmark times *in the same run*
of its binary.  A real regression makes one benchmark slow relative to its
siblings and shows up as a normalized ratio > 1; a slower machine scales
every time equally and cancels out.  The gate fails when any benchmark's
normalized time exceeds the baseline by more than --threshold (default
15 %).

Usage:
  bench_check.py --bench-dir build/bench                 # check
  bench_check.py --bench-dir build/bench --update-baseline
"""

import argparse
import json
import math
import os
import subprocess
import sys

DEFAULT_BINARIES = ["bench_partitioners", "bench_amr", "bench_clustering",
                    "bench_faults", "bench_scale"]
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_baseline.json")


def run_binary(path, repetitions):
    """Run one benchmark binary, return {name: min real_time_ns}.

    The minimum over repetitions is the noise-robust statistic: scheduler
    interference and cache pollution only ever add time, so the fastest
    repetition is the closest to the code's true cost.
    """
    cmd = [
        path,
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    data = json.loads(proc.stdout)
    times = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        t = float(b["real_time"])
        times[name] = min(times.get(name, t), t)
    if not times:
        raise RuntimeError(f"{path} produced no benchmark results")
    return times


def normalize(times):
    """Divide each time by the run's geometric mean."""
    logs = [math.log(t) for t in times.values() if t > 0]
    gmean = math.exp(sum(logs) / len(logs))
    return {name: t / gmean for name, t in times.items()}


def load_baseline(path):
    """Parse the committed baseline; returns (dict, None) or (None, error).

    A corrupted baseline must fail the gate with a message naming the file,
    not a JSON traceback — the fix is `--update-baseline`, and the error
    should say so.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        return None, f"cannot read baseline {path}: {e}"
    except json.JSONDecodeError as e:
        return None, (f"malformed baseline {path}: {e}; regenerate it "
                      "with --update-baseline")
    if not isinstance(data, dict) or not all(
            isinstance(v, dict) for v in data.values()):
        return None, (f"malformed baseline {path}: expected "
                      "{binary: {benchmark: normalized_time}}; regenerate "
                      "it with --update-baseline")
    return data, None


def gate(report, baseline, threshold, out=sys.stdout):
    """Compare a run report against the baseline.

    Returns the list of (binary, name, ratio) regressions beyond
    `threshold`.  Benchmarks absent from the baseline are announced but
    never fail the gate — a new benchmark has no history to regress from.
    """
    failures = []
    for binary, data in report["binaries"].items():
        base = baseline.get(binary, {})
        for name, norm in data["normalized"].items():
            if name not in base:
                out.write(f"  new benchmark (no baseline): "
                          f"{binary}:{name}\n")
                continue
            ratio = norm / base[name]
            marker = "REGRESSION" if ratio > 1 + threshold else "ok"
            out.write(f"  {binary}:{name}: normalized {norm:.3f} vs "
                      f"baseline {base[name]:.3f} ({ratio - 1:+.1%}) "
                      f"{marker}\n")
            if ratio > 1 + threshold:
                failures.append((binary, name, ratio))
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the benchmark binaries")
    ap.add_argument("--binaries", nargs="*", default=DEFAULT_BINARIES)
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument("--output", default="BENCH_pr.json",
                    help="where to write this run's measurements")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed normalized-time increase (0.15 = 15%%)")
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--update-baseline", action="store_true")
    args = ap.parse_args()

    report = {"binaries": {}, "threshold": args.threshold}
    for binary in args.binaries:
        path = os.path.join(args.bench_dir, binary)
        if not os.path.exists(path):
            sys.stderr.write(f"missing benchmark binary: {path}\n")
            return 1
        times = run_binary(path, args.repetitions)
        report["binaries"][binary] = {
            "real_time_ns": times,
            "normalized": normalize(times),
        }

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if args.update_baseline:
        baseline = {
            binary: data["normalized"]
            for binary, data in report["binaries"].items()
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
        print(f"updated {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        sys.stderr.write(
            f"no baseline at {args.baseline}; run with --update-baseline\n")
        return 1
    baseline, err = load_baseline(args.baseline)
    if err:
        sys.stderr.write(err + "\n")
        return 1

    failures = gate(report, baseline, args.threshold)
    if failures:
        sys.stderr.write(
            f"\n{len(failures)} hot-path regression(s) beyond "
            f"{args.threshold:.0%}:\n")
        for binary, name, ratio in failures:
            sys.stderr.write(f"  {binary}:{name} ({ratio - 1:+.1%})\n")
        return 1
    print("benchmark gate: no regressions beyond "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
