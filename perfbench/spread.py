"""Run-to-run spread of the benchmark: each workload once per seed 1..runs,
each run as long as BENCHMARK.json's run_seconds, then for every metric the
median and the distance between the first and third quartiles as a share of
the median.

  python3 perfbench/spread.py --runs 10 [--workloads fig2,points] [--trace 1]

Run from the root of a rotorkick checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_workload

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    ok = True
    for name in args.workloads.split(","):
        results = [run_workload(name, seed, SPEC["run_seconds"], bool(args.trace))[1]
                   for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"{name}: {args.runs} runs, correct {correct}, failed shares {sorted(shares)}", flush=True)
        for key in results[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {key:40s} median {med:<14.6g} IQR/median {spread:.4f}  "
                  + " ".join(f"{v:.4g}" for v in vals), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
