"""Run the benchmark on several seeds and report each metric's median and
quartile spread, (Q3 - Q1) / median, as the acceptance check computes it.

    python3 perfbench/spread.py --workload curves-gf5 --seeds 1 2 3 4 5 --seconds 40

Runs are sequential, one benchmark process at a time.  Prints one JSON
object: {"runs": [...results...], "machine": [...machine notes of each run...],
"metrics": {name: {median, q1, q3, spread}}}.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from stats import quartile_spread

HERE = pathlib.Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs, machine = [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        runs.append(json.loads(lines[-1]))
        machine.append(json.loads(lines[-2])["machine"])
    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": quartile_spread(values) if med else None}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "runs": runs,
                      "machine": machine, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
