"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workload NAME ...]

Runs perfbench/run.py once per seed and workload, one after another, and
prints for each metric its median and the distance between its first and
third quartile as a share of the median: the figure each bound in
BENCHMARK.json is set against. Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)
    rows = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        rows[workload] = runs
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:15s} {metric['name']:12s} median {med:10.4f}  "
                  f"iqr/median {(q3 - q1) / med:.3f}  bound {metric['bound']}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok = all(r["correct"] for r in runs)
        print(f"{workload:15s} correct {ok}  failed shares {sorted(shares)}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{args.label}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
