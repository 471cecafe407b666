#!/usr/bin/env python3
"""Benchmark self-test at tiny budgets (seconds, not minutes).

For every workload it asserts that run.py prints every metric named in
BENCHMARK.json with its unit, untraced and traced; that the traced
replay reproduces the sweep (run.py counts any difference as failed);
and that the result check flags a deliberately altered expectation.

    python3 tlbench/selftest.py
"""

import json
import subprocess
import sys

import common

SEED = 5


def run(workload, trace, expected=None):
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--budget", "tiny"]
    if expected:
        cmd += ["--expected", str(expected)]
    # The altered-expectation run reports its failures on stderr.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL if expected else None)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
        sys.exit(1)


def main():
    end_to_end, per_layer = common.benchmark_metrics()
    tmp = common.BUILD / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    for w in common.WORKLOADS:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            rc, out = run(w, trace)
            expect(rc == 0 and out["correct"] and out["failed"] == 0,
                   f"{w} trace={trace} not correct: {out}")
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            expect(got == units, f"{w} trace={trace} metrics/units "
                   f"differ from BENCHMARK.json: {got}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in out["metrics"].values()),
                   f"{w} trace={trace}: non-numeric metric")

        # Alter one stored cycle count; the check must catch it.
        data = json.loads(common.expected_path(w).read_text())
        runs = data["tiny"][str(SEED % common.SEED_SPACE)]
        runs[next(iter(runs))]["cycles"] += 1
        altered = tmp / f"{w}.json"
        altered.write_text(json.dumps(data))
        rc, out = run(w, 0, altered)
        expect(rc != 0 and not out["correct"] and out["failed"] >= 1,
               f"{w}: altered expectation not flagged: {out}")
        print(f"{w}: ok", flush=True)
    print("selftest OK")


if __name__ == "__main__":
    main()
