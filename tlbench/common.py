"""Shared helpers of the tlbench scripts: build, run, result check."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["paper_fig5_mcf", "timed_apache_swim", "cmp4_ddr"]
# --seed N runs base seed N % SEED_SPACE, so every seed has stored
# expected results (expected/<workload>.json).
SEED_SPACE = 16
# A child that outlives this is killed (the contract allows 180 s per
# benchmark invocation; one child is at most one cold sweep + replay).
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"tlbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the tlbench binary into .bench_build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
            ROOT / "bench" / "paperdata.hh").is_file():
        fail(f"simulator sources (src/, bench/paperdata.hh) not found "
             f"under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "tlbench"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "tlbench"


def run_tool(binary, mode, workload, seed, budget="paper", spans=None):
    """One fresh tlbench process with its own result cache and journal."""
    (BUILD / "work").mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=BUILD / "work")
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--budget", budget, "--work", work]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout)


def digest(result):
    """Content hash of one RunResult as tlbench serializes it."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(result):
    """What expected/<workload>.json stores per run."""
    return {"cycles": result["cycles"], "ipc": result["ipc"],
            "digest": digest(result)}


def expected_path(workload):
    return BENCH_DIR / "expected" / f"{workload}.json"


def load_expected(path, budget, seed):
    """Expected summaries by spec key for one base seed ({} if none)."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}
    return data.get(budget, {}).get(str(seed), {})


def check(runs, expected):
    """Spec keys of failed runs: an error, or a result that differs
    from the stored expectation (a missing expectation is a failure)."""
    bad = []
    for key, run in runs.items():
        if run["error"] or expected.get(key) != summarize(run["result"]):
            bad.append(key)
    return bad


def benchmark_metrics():
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        fail(f"{ROOT / 'BENCHMARK.json'} not found")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})
