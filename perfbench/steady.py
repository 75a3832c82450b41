"""Steadiness check: run one workload at several seeds and report, for each
end-to-end metric, its median and the spread between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  A benchmark is steady when every spread except setup_s
stays below a third of its bound.

    python3 perfbench/steady.py --workload NAME [--seeds 1-10] [--seconds S]

Runs are sequential; the result is also written to
perfbench/out/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(json.dumps(runs[-1]), flush=True)
    table = {}
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        table[name] = {"median": statistics.median(values), "spread": spread(values),
                       "bound": bound, "steady": spread(values) < bound / 3}
        print(f"{name:20s} median {table[name]['median']:12.6g}  spread "
              f"{table[name]['spread']:7.4f}  bound {bound}  "
              f"{'ok' if table[name]['steady'] else 'WIDE'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "runs": runs, "table": table}, fh, indent=1)


if __name__ == "__main__":
    main()
