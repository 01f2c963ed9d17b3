#!/usr/bin/env python3
"""Run one workload k times, each with another seed, and show steadiness.

Usage (from the repository root):
    python3 perfbench/repeat.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--log <file.jsonl>]

For every end-to-end metric in BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the metric's bound, plus the share of failed
operations in each run. A spread at or above the bound is marked; the
benchmark's own target is a spread below a third of the bound (set-up
time is judged on its median only). Each run's JSON result is appended
to --log when given, with the run's standard-error lines about deadline
faults and the twin comparison under "notes". Exits non-zero if a run fails or reports incorrect
output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--log")
    args = ap.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = []
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        notes = [line for line in proc.stderr.splitlines()
                 if "deadline" in line or "twin" in line]
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                    "notes": notes}) + "\n")
        ok &= result["correct"]
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{args.workload}: {len(shares)} runs, failed share per run {sorted(set(shares))}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        mark = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread < m["bound"] else "  > BOUND")
        print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {m['bound']:>6}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
