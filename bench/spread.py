"""Run bench/run.py over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--out results.json]

Runs are made one at a time.  For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median next to a third of the metric's bound.  With
--out, every run's JSON result is saved for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = {}
    for workload in args.workload or names:
        runs = results[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    for workload, runs in results.items():
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} correct")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:12s} median {med:10.4f}  Q1 {q1:10.4f}  "
                  f"Q3 {q3:10.4f}  spread {(q3 - q1) / med:6.3f}  "
                  f"(a third of the bound: {metric['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
