#!/usr/bin/env python3
"""Record expected/<workload>.json: the RunResult summary of every run
of every workload, budget and base seed, taken from cold sweeps.

Re-record only when a change is meant to alter simulated results.

    python3 tlbench/record_expected.py
"""

import json
from concurrent.futures import ThreadPoolExecutor

import common


def main():
    binary = common.build()
    for workload in common.WORKLOADS:
        data = {}
        for budget in ("tiny", "paper"):
            def one(seed):
                out = common.run_tool(binary, "sweep", workload, seed,
                                      budget)
                for key, run in out["sweep"].items():
                    if run["error"]:
                        raise RuntimeError(f"{key}: {run['error']}")
                return {k: common.summarize(r["result"])
                        for k, r in out["sweep"].items()}

            # Two tlbench processes at once, each with 2 sweep workers.
            with ThreadPoolExecutor(2) as pool:
                runs = list(pool.map(one, range(common.SEED_SPACE)))
            data[budget] = {str(s): r for s, r in enumerate(runs)}
            print(f"{workload}/{budget}: {common.SEED_SPACE} seeds",
                  flush=True)
        path = common.expected_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
