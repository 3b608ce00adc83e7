"""polymf3 benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload promote-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The run happens in a fresh,
single-threaded child interpreter with a fixed hash seed and no bytecode
cache, so each run imports and compiles polymf3 from src/ the same way.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The same line is kept in perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polymf3", "__init__.py")):
        sys.stderr.write(f"error: no polymf3 sources under {ROOT}/src; run from a checkout\n")
        return 2
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        # a cache directory that never exists: every import compiles from source
        PYTHONPYCACHEPREFIX=os.path.join(RESULTS, "no-bytecode-cache"),
    )
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: the run took longer than {CHILD_TIMEOUT_S} s\n")
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(f"error: the benchmark run exited with {child.returncode}\n")
        return 1
    result = json.loads(lines[-1])
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
