"""Reference figures: run every workload over a set of seeds, one at a time.

Usage (from the root of a checkout):

    python3 perfbench/reference.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0
    python3 perfbench/reference.py --seeds 1 --trace 1 --workloads fanout-sc

For each workload it prints the operations attempted and failed, summed
over the runs, and the failed share of each run.  For each metric it
prints the median over the seeds, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median, which ``BENCHMARK.json`` bounds.  Every run lasts
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]

    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        attempted, failed = sum(r["attempted"] for r in results), sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"attempted {attempted}, failed {failed}, failed share per run {shares}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:28s} {median:12.5g} {first['unit']:9s}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += f" Q1 {q1:10.5g}  Q3 {q3:10.5g}  spread {spread:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
