"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 bench/spread.py --workload hot-read --seeds 1-10

Each run is `run.py --workload <workload> --seed <seed> --trace 0` with
run.py's default `--seconds`.

Spread is the distance between the first and third quartile of the values,
as a share of their median (`statistics.quantiles(values, n=4)`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
