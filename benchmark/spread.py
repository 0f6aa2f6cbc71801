"""Run one workload over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload NAME [--seeds 10] [--first 1]

For every metric: the median over the seeds and the distance between the
first and third quartiles as a share of the median, the measure BENCHMARK.json's
bounds are set against.  Runs are sequential, one process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first, args.first + args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=300,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stdout)
            return 1
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:40s} median {med:.6g}  iqr/median {(q3 - q1) / med if med else 0.0:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
