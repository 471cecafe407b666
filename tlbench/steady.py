#!/usr/bin/env python3
"""Steadiness runner: repeat each workload in fresh run.py processes
(one seed per round, workload order alternating between rounds) and
print the median, quartiles and (q3 - q1) / median of every metric.

    python3 tlbench/steady.py --runs 10 --first-seed 100 --out a.json
    python3 tlbench/steady.py --runs 10 --first-seed 200 --compare a.json

--compare checks each end-to-end median against an earlier --out file
and flags a metric whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

import common


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() \
        else "{}"
    out = json.loads(last)
    if not out.get("correct"):
        print(f"INCORRECT: {' '.join(cmd)} -> {last}", file=sys.stderr)
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(common.WORKLOADS))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the raw values here (JSON)")
    ap.add_argument("--compare", help="earlier --out file to compare "
                    "end-to-end medians against")
    args = ap.parse_args()

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    incorrect = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            out = run_once(w, args.first_seed + i, seconds, args.trace)
            incorrect += not out.get("correct")
            for name, m in out.get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])

    print(f"{'workload':<18} {'metric':<26} {'n':>2} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:<18} {name:<26} {len(vals):>2} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>7.2%}")

    worse = 0
    if args.compare:
        old = json.loads(open(args.compare).read())
        print("\nmedian vs --compare (ratio new/old, bound)")
        for w in workloads:
            for name, (bound, better) in bounds.items():
                if name not in values[w] or name not in old.get(w, {}):
                    continue
                ratio = (statistics.median(values[w][name]) /
                         statistics.median(old[w][name]))
                bad = ratio > 1 + bound if better == "lower" \
                    else ratio < 1 - bound
                worse += bad
                print(f"{w:<18} {name:<14} {ratio:8.4f}  {bound:.2f}"
                      f"{'  WORSE' if bad else ''}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    print(f"\nincorrect runs: {incorrect}")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    sys.exit(main())
