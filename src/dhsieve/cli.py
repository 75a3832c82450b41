"""Command line entry point.

Subcommands: simulate (run a recovery algorithm on random instances),
table1 (cancellation-race averages), scaling (fit the race scaling law
from a CSV), verify (statistical verification suite), bench (the
perfbench workloads of a source checkout, recorded in BENCH_<label>.json).

A JSON config key becomes the flag --key=value (underscores as dashes)
ahead of the command line, so explicit flags win; a null keeps the
default.  Exit codes: 0 success, 1 check/recovery failure, 2 usage
error or bad value, on one line of stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import NoHiddenReflectionError
from .group import AbelianGroupSpec, GroupCtx
from .harness import (
    MAX_BITS,
    ResultRow,
    fit_scaling,
    label_width,
    run_table1,
    verify_suite,
)
from .oracle import make_reflection_oracle, make_shift_pair
from .recover import (
    recover_slope_general,
    recover_slope_power2,
    recover_slope_radix,
    solve_abelian_shift,
)

# the source checkout this module sits in (src/dhsieve/cli.py), and the
# workloads of its benchmark runner, perfbench/run.py
CHECKOUT = Path(__file__).resolve().parents[2]
BENCH_WORKLOADS = ("staged", "solvers", "race", "dense")

# the instance flags each simulate algorithm reads: the first is required,
# greedy's --radix is optional (default 2)
SIM_FLAGS = {"staged": ("n",), "general": ("N",),
             "greedy": ("n", "radix"), "abelian": ("orders",)}


class UsageError(Exception):
    pass


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(dicts, args):
    """Row dicts, at least one, as --format asks: a JSON list, or CSV with
    the first row's keys as its columns."""
    if args.format == "json":
        return _emit(json.dumps(dicts, indent=2) + "\n", args.out)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(dicts[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(dicts)
    _emit(buf.getvalue(), args.out)


def _fmt(v):
    return round(v, 6) if isinstance(v, float) else v


def power(base, exp, flag):
    """base ** exp for the value of flag, refused before it is computed
    unless 0 <= exp <= MAX_BITS / base.bit_length(): at most MAX_BITS
    bits."""
    top = MAX_BITS // max(1, base.bit_length())
    if not 0 <= exp <= top:
        raise UsageError(f"{flag}: {base}^{exp}: the exponent must lie in "
                         f"[0, {top}]")
    return base ** exp


def budgets(text):
    """--budgets: "3^1..3^6" ranges or comma-separated integers / powers.
    Named, like orders, for argparse's "invalid budgets value" message."""
    def one(tok):
        if "^" in tok:
            b, e = tok.split("^")
            return power(int(b), int(e), "--budgets")
        return int(tok)

    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        if "^" not in lo or "^" not in hi:
            raise argparse.ArgumentTypeError("use base^lo..base^hi")
        base, e0 = lo.split("^")
        base2, e1 = hi.split("^")
        if base != base2:
            raise argparse.ArgumentTypeError("endpoints must share a base")
        # top down, so a refused power is refused before any is built
        return [power(int(base), e, "--budgets")
                for e in range(int(e1), int(e0) - 1, -1)][::-1]
    return [one(t) for t in text.split(",") if t]


def labels(text):
    """--labels: a race label width, refused by harness.label_width, the
    check run_table1 makes, before anything is drawn."""
    try:
        return label_width(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None


def orders(text):
    """--orders: comma-separated cyclic orders, as the group they define."""
    return AbelianGroupSpec(tuple(map(int, text.split(","))))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_table1(args):
    rows = run_table1(args.budgets, trials=args.trials, n_labels=args.labels,
                      rng=args.seed)
    _emit_rows([{k: _fmt(v) for k, v in asdict(r).items()} for r in rows],
               args)
    return 0


def _csv_value(rec, name, kind):
    """One field of a table1 CSV row, parsed as kind; a missing or
    unparseable value is a usage error that names its column."""
    text = rec.get(name)
    if text is None:
        raise UsageError(f"input CSV has no {name!r} column")
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"input CSV column {name!r}: cannot parse {text!r}")


def _cmd_scaling(args):
    kinds = typing.get_type_hints(ResultRow)
    with open(getattr(args, "in")) as fh:
        rows = [ResultRow(**{f.name: _csv_value(rec, f.name, kinds[f.name])
                             for f in fields(ResultRow)})
                for rec in csv.DictReader(fh)]
    try:
        slope, intercept, residuals = fit_scaling(rows)
    except ArithmeticError as exc:
        raise UsageError(exc)
    payload = {"slope": _fmt(slope), "intercept": _fmt(intercept),
               "residuals": [_fmt(float(r)) for r in residuals]}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args):
    report = verify_suite(N_max=args.nmax, samples=args.samples,
                          rng=args.seed, coin_bias=args.coin_bias,
                          phase_sign=args.phase_sign)
    _emit(report.format() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_simulate(args):
    """Build the group, the instance maker and the solver once, then per
    trial plant a random secret, solve and record."""
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    read = SIM_FLAGS[args.algorithm]
    for flag in ("n", "N", "orders", "radix"):
        if getattr(args, flag) is not None and flag not in read:
            raise UsageError(f"--{flag} is not read by the {args.algorithm}"
                             " algorithm")
    if getattr(args, read[0]) is None:
        raise UsageError(f"--{read[0]} is required for the {args.algorithm}"
                         " algorithm")
    rng = np.random.default_rng(args.seed)
    make = make_reflection_oracle
    if args.algorithm == "abelian":
        group, make = args.orders, make_shift_pair
        solve = lambda inst: solve_abelian_shift(inst, rng=rng)
    elif args.algorithm == "general":
        if args.N < 1:
            raise UsageError("--N must be >= 1")
        group = GroupCtx(args.N)
        solve = lambda inst: recover_slope_general(inst, rng=rng)
    else:
        if args.n < 0:
            raise UsageError("--n must be >= 0")
        radix = 2 if args.radix is None else args.radix
        if radix < 2:
            raise UsageError("--radix must be >= 2")
        group = GroupCtx(power(radix, args.n, "--n"))
        solve = lambda inst: recover_slope_radix(inst, radix, args.n, rng=rng)
        if args.algorithm == "staged":
            solve = lambda inst: recover_slope_power2(inst, args.n, rng=rng)
    fmt = lambda v: ";".join(map(str, v)) if isinstance(v, tuple) else str(v)
    dicts = []
    for trial in range(args.trials):
        t0 = time.perf_counter()
        # reduce makes an abelian draw (a matrix row) the tuple it stands for
        secret = group.reduce(group.random_elements(rng, 1).tolist()[0])
        inst = make(group, secret)
        try:
            got, rep = solve(inst)
        except NoHiddenReflectionError:
            got = rep = None
        dicts.append({"trial": trial, "secret": fmt(secret),
                      "recovered": "" if rep is None else fmt(got),
                      "success": int(got == secret),
                      "attempts": "" if rep is None else rep.attempts,
                      "queries": inst.queries,
                      "seconds": _fmt(time.perf_counter() - t0)})
    _emit_rows(dicts, args)
    return 0 if all(d["success"] for d in dicts) else 1


def _git(*args):
    """stdout of a git command in the checkout, or None without git."""
    try:
        out = subprocess.run(["git", "-C", str(CHECKOUT), *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def _cmd_bench(args):
    """Run perfbench/run.py once per workload (tracing off) and write its
    end-to-end metrics, with the run's seed, host, versions and commit,
    to BENCH_<label>.json at the checkout root (or --out)."""
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", args.label):
        raise UsageError(f"--label {args.label!r}: use letters, digits, "
                         "'.', '_' and '-'")
    runner = CHECKOUT / "perfbench" / "run.py"
    if not runner.is_file():
        raise UsageError(f"no perfbench/run.py in {CHECKOUT}: bench runs "
                         "from a source checkout only")
    if not 0 < args.seconds < math.inf:
        raise UsageError("--seconds must be a finite number > 0")
    seed = 1 if args.seed is None else args.seed
    results = {}
    for workload in [args.workload] if args.workload else BENCH_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(runner), "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            print(f"dhsieve bench: {workload}: {lines[-1]}", file=sys.stderr)
            return 1 if proc.returncode == 1 else 2
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = {
            "trials": last["attempted"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label, "seed": seed, "seconds": args.seconds,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if dirty is None else bool(dirty),
        "host": {"system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(), "numpy": np.__version__,
        "workloads": results}
    out = args.out or CHECKOUT / f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Parser


COMMANDS = {"simulate": _cmd_simulate, "table1": _cmd_table1,
            "scaling": _cmd_scaling, "verify": _cmd_verify,
            "bench": _cmd_bench}


class _Parser(argparse.ArgumentParser):
    """argparse raising UsageError, with flags (and config keys) in full."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_common(p, *read):
    """--out and --config, plus the "seed" and "format" flags p reads."""
    if "seed" in read:
        p.add_argument("--seed", type=int, default=None)
    if "format" in read:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON file of defaults")


def build_parser():
    parser = _Parser(
        prog="dhsieve",
        description="Classical simulator for the dihedral sieve algorithms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a recovery on random instances")
    p.add_argument("--algorithm", required=True,
                   choices=["staged", "general", "greedy", "abelian"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--orders", type=orders, default=None,
                   help="comma-separated cyclic orders")
    p.add_argument("--radix", type=int, default=None,
                   help="greedy only (default 2)")
    p.add_argument("--trials", type=int, default=10)
    _add_common(p, "seed", "format")

    p = sub.add_parser("table1", help="cancellation race averages")
    p.add_argument("--budgets", type=budgets, default="3^1..3^6")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--labels", type=labels, default=96,
                   help="label width in bits")
    _add_common(p, "seed", "format")

    p = sub.add_parser("scaling", help="fit the race scaling law")
    p.add_argument("--in", required=True, dest="in",
                   help="CSV produced by table1")
    _add_common(p)

    p = sub.add_parser("verify", help="statistical verification suite")
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--coin-bias", type=float, default=0.5,
                   help="fault injection: extraction coin bias")
    p.add_argument("--phase-sign", type=int, default=1,
                   help="fault injection: +1 or -1")
    _add_common(p, "seed")

    p = sub.add_parser("bench", help="benchmark workloads into "
                       "BENCH_<label>.json (source checkout only)")
    p.add_argument("--label", default="head")
    p.add_argument("--workload", choices=BENCH_WORKLOADS, default=None,
                   help="one workload (default: all four)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="run.py's --seconds per workload")
    _add_common(p, "seed")

    return parser


def _config_flags(argv):
    """The JSON config named by argv's --config as flags --key=value,
    leaving out null values."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config file: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    flags = []
    for key, value in cfg.items():
        if value is None:
            continue
        if isinstance(value, (bool, list, dict)):
            raise UsageError(f"config key {key!r} is not a string or number")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    where = " ".join(["dhsieve", *(c for c in argv[:1] if c in COMMANDS)])
    try:
        # config flags go ahead of the command line, so explicit flags win
        args = build_parser().parse_args(
            argv[:1] + _config_flags(argv[1:]) + argv[1:])
        return COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError, MemoryError,
            OverflowError) as exc:
        # library input checks raise ValueError, a path that cannot be
        # opened raises OSError, and an instance too large to hold raises
        # MemoryError or OverflowError: a bad value, not a crash.  An
        # exception with no message is named by its type
        print(f"{where}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
