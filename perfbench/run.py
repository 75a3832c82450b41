"""dhsieve benchmark: seeded workloads through the public library API,
end-to-end metrics with tracing off, per-layer metrics from a traced run.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn.  Each workload runs in
processes of its own (perfbench/worker.py), so one workload's heap cannot
slow another and peak memory is per workload.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it print every metric by name with its unit.  A full record
(environment, seed, extra figures, retry reasons) goes to
perfbench/out/.  See perfbench/NOTES.md for the workloads and metrics.

Times are reference seconds: measured seconds scaled by the speed of a
calibration kernel timed during and after each trial (calibration.py).
--trace 0 reports the end-to-end metrics; set-up is timed in several
processes and the median reported.  --trace 1 runs the workload untraced
and then traced at the same seed, fails unless the two agree on every
secret and query count, and reports the per-layer metrics and the
tracing overhead.  Exit status: 0 on success, 1 when an output check or
the trace reconciliation fails, 2 when the sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("staged", "solvers", "race", "dense")
SETUP_RUNS = 5          # processes timed for setup_s, the main run included
RUN_LIMIT_S = 170       # whole invocation, per workload
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "trial_s_p50": "s",
              "queries_per_trial": "count", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def spawn(workload, seed, seconds, deadline, extra=()):
    """Run one worker to completion; returns (its JSON, spawn clock)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{workload}: worker exceeded the time limit")
    if proc.returncode != 0:
        raise RunError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), t0


def run_untraced(workload, seed, seconds, deadline):
    from calibration import scaled
    setups, raw_setups = [], []
    for k in range(SETUP_RUNS):
        extra = ["--setup-only"] if k < SETUP_RUNS - 1 else []
        res, t0 = spawn(workload, seed, seconds, deadline, extra)
        raw_setups.append(res["ready"] - t0)
        setups.append(scaled(raw_setups[-1], res["cal"]))
    import workloads
    figures = workloads.summary(res["records"])
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": figures["wall_s"],
               "trial_s_p50": figures["trial_s_p50"],
               "queries_per_trial": figures["queries_per_trial"],
               "peak_rss_mb": res["peak_rss_mb"]}
    extra = {k: v for k, v in figures.items() if k not in metrics}
    extra["setup_s_runs"] = setups
    extra["raw_setup_s_runs"] = raw_setups
    return res, metrics, extra


def run_traced(workload, seed, seconds, deadline, spans_path):
    import tracer
    ref, _ = spawn(workload, seed, seconds, deadline)
    res, _ = spawn(workload, seed, seconds, deadline,
                   ["--trace", "--spans", spans_path])
    tracer.check_traced(workload, ref, res)
    metrics = dict(res["layers"])
    import workloads
    metrics["trace.overhead"] = (workloads.summary(res["records"])["wall_s"]
                                 / workloads.summary(ref["records"])["wall_s"])
    extra = {"retries": res["retries"], "spans_file": os.path.relpath(spans_path, ROOT)}
    return res, metrics, extra


def units():
    import tracer
    table = dict(END_TO_END)
    table.update({k: v[0] for k, v in tracer.LAYER_METRICS.items()})
    return table


def report(workload, seed, seconds, trace, res, metrics, extra):
    records = res["records"]
    failed = sum(not r["verified"] for r in records)
    unit = units()
    env = res["env"]
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"trials {len(records)}  python {env['python']}  numpy {env['numpy']}  "
          f"{env['blas']}  blas_threads {env['blas_threads']}  nproc {env['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit[name]}")
    if trace == 0:
        if "trial_s_tail" in extra:
            print(f"  {'trial_s_tail':32s} {extra['trial_s_tail']:14.6g} s "
                  f"(p{extra['trial_s_tail_pct']} of {len(records)} trials)")
        else:
            print(f"  {'trial_s_tail':32s} {'n/a':>14s}   "
                  f"({len(records)} trials leave no tail above the median)")
        print(f"  {'failure_rate':32s} {extra['failure_rate']:14.6g} ratio "
              f"({failed}/{len(records)})")
        if "alpha_mean" in extra:
            print(f"  {'alpha_mean':32s} {extra['alpha_mean']:14.6g} count")
    else:
        for reason, n in sorted(extra["retries"].items()):
            print(f"  retry: {n:6d} x {reason}")
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "trials": len(records),
              "failed": failed, "metrics": metrics, "extra": extra,
              "trial_raw_s": [r["seconds"] for r in records],
              "trial_kernel_s": [r["cal"] for r in records]}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": True, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit[k]}
                                  for k, v in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dhsieve", "__init__.py")):
        print(f"run.py: no dhsieve sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("run.py: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    os.makedirs(OUT, exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                spans = os.path.join(OUT, f"{workload}-seed{args.seed}-spans.jsonl")
                res, metrics, extra = run_traced(workload, args.seed, args.seconds,
                                                 deadline, spans)
            else:
                res, metrics, extra = run_untraced(workload, args.seed,
                                                   args.seconds, deadline)
        except (RunError, workloads.CheckFailure) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, args.seconds, args.trace, res, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
