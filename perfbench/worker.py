"""One workload process: set up, run the timed trials, print one JSON
object on stdout.  Started by run.py; not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--spans FILE]

The process clock starts when run.py spawns it; `ready` (a
CLOCK_MONOTONIC reading) marks the moment the first timed trial starts,
after importing dhsieve, building the instances and a warm-up.

A calibration (calibration.py) follows set-up; during the trials a
sampler times the kernel every quarter second and once more after each
trial.  Each trial record keeps its raw seconds (sampler time removed)
and the median kernel time over its span.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dhsieve  # noqa: E402

if not os.path.abspath(dhsieve.__file__).startswith(SRC + os.sep):
    sys.exit(f"dhsieve was imported from {dhsieve.__file__}, not from {SRC}")

import workloads  # noqa: E402
from calibration import Sampler, calibrate, scaled  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    specs = workloads.plan(args.workload, args.seed, args.seconds)
    workloads.warm_up(args.workload)
    tracer = Tracer().install() if args.trace else None
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    cal_ready = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "cal": cal_ready}))
        return 0

    records = []
    with Sampler() as sampler:
        for i, spec in enumerate(specs):
            n0, spent0 = len(sampler.samples), sampler.spent
            with (tracer.trial(i, spec["kind"]) if tracer else contextlib.nullcontext()):
                t0 = time.perf_counter()
                rec = workloads.run_trial(spec)
                rec["seconds"] = time.perf_counter() - t0 - (sampler.spent - spent0)
            rec["cal"] = statistics.median(sampler.samples[n0:] + [calibrate()])
            workloads.check_trial(rec)
            rec.pop("law", None)
            records.append(rec)

    out = {"ready": ready, "cal": cal_ready, "env": environment(),
           "records": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(
            {i: scaled(1.0, r["cal"]) for i, r in enumerate(records)})
        out["labels"] = tracer.counts["labels"]
        out["retries"] = dict(tracer.reasons)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except workloads.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(3)
