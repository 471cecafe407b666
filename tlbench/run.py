#!/usr/bin/env python3
"""The repository benchmark (see tlbench/README.md).

    python3 tlbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the tlbench binary from source on first use, then:
  --trace 0  repeats cold sweeps of W (a fresh process, result cache
             and journal each) for about S seconds and reports the
             median of every end-to-end metric;
  --trace 1  runs one traced replay of W and reports the per-layer
             metrics; the spans go to .bench_build/spans/.
Every run's RunResult is checked against expected/<W>.json. The last
stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import statistics
import sys
import time

import common


def sweep_reps(binary, args, seed, expected):
    """Cold repetitions until the next would overrun --seconds."""
    reps, bad, attempted = [], [], 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        out = common.run_tool(binary, "sweep", args.workload, seed,
                              args.budget)
        reps.append(out)
        attempted += len(out["sweep"])
        bad += common.check(out["sweep"], expected)
        rep_s = time.monotonic() - t
        if time.monotonic() - start + rep_s > args.seconds:
            break
    return reps, attempted, bad


def traced(binary, args, seed, expected):
    spans = (common.BUILD / "spans" /
             f"{args.workload}-{args.budget}-seed{args.seed}.json")
    spans.parent.mkdir(parents=True, exist_ok=True)
    out = common.run_tool(binary, "trace", args.workload, seed,
                          args.budget, spans)
    sweep = out["sweep"]
    bad = common.check(sweep, expected)
    # Each replay must reproduce the cold sweep, and so must the warm
    # re-run, which must also be served entirely from the cache.
    bad += [f"replay {k}" for k, run in out["replay"].items()
            if run != sweep[k]]
    rerun_bad = [f"rerun {k}" for k, run in out["rerun"].items()
                 if run != sweep[k]]
    misses = len(sweep) - out["rerun_cached"]
    bad += rerun_bad + ["rerun cache miss"] * (misses - len(rerun_bad))
    print(f"spans: {spans}", file=sys.stderr)
    return out["metrics"], 3 * len(sweep), bad


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", choices=("paper", "tiny"), default="paper",
                    help="tiny: seconds-long self-test budgets")
    ap.add_argument("--expected", help="expected-results file to check "
                    "against (default: tlbench/expected/<workload>.json)")
    args = ap.parse_args()
    if args.seed < 0:
        common.fail("--seed must be non-negative")

    end_to_end, per_layer = common.benchmark_metrics()
    binary = common.build()
    seed = args.seed % common.SEED_SPACE
    expected = common.load_expected(
        args.expected or common.expected_path(args.workload), args.budget,
        seed)

    if args.trace:
        raw, attempted, bad = traced(binary, args, seed, expected)
        units = per_layer
    else:
        reps, attempted, bad = sweep_reps(binary, args, seed, expected)
        raw = {name: statistics.median(r[name] for r in reps)
               for name in end_to_end if name in reps[0]}
        units = end_to_end
        print(f"{len(reps)} cold sweep(s); wall_s per rep: "
              f"{[round(r['wall_s'], 3) for r in reps]}", file=sys.stderr)

    missing = [name for name in units if name not in raw]
    if missing:
        common.fail(f"tlbench did not report {missing}")
    for key in bad:
        print(f"FAILED: {key}", file=sys.stderr)
    print(f"fail_frac = {len(bad)}/{attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": raw[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
