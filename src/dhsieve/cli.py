"""Command line entry point.

Subcommands: simulate (run a recovery algorithm on random instances),
table1 (cancellation-race averages), scaling (fit the race scaling law
from a CSV), verify (statistical verification suite).

A JSON config file may supply any flag of the chosen subcommand (keys
use underscores); explicit flags win, and other keys are rejected.
Exit codes: 0 success, 1 check/recovery failure, 2 usage error or bad
value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from .errors import NoHiddenReflectionError
from .group import AbelianGroupSpec, GroupCtx
from .harness import ResultRow, fit_scaling, run_table1, verify_suite
from .oracle import make_reflection_oracle, make_shift_pair
from .recover import (
    recover_slope_general,
    recover_slope_power2,
    recover_slope_radix,
    solve_abelian_shift,
)

TABLE1_FIELDS = ["budget", "trials", "mean", "stddev", "queries", "seconds"]
SIM_FIELDS = ["trial", "secret", "recovered", "success", "attempts",
              "queries", "seconds"]


class UsageError(Exception):
    pass


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_csv(dicts, fields):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    for d in dicts:
        w.writerow(d)
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, float):
        return round(v, 6)
    return v


def _table1_dicts(rows):
    return [{"budget": r.budget, "trials": r.trials, "mean": _fmt(r.mean),
             "stddev": _fmt(r.stddev), "queries": r.queries,
             "seconds": _fmt(r.seconds)} for r in rows]


def _parse_budgets(text):
    """Accept "3^1..3^6" ranges or comma-separated integers / powers."""
    def one(tok):
        if "^" in tok:
            b, e = tok.split("^")
            return int(b) ** int(e)
        return int(tok)

    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        if "^" not in lo or "^" not in hi:
            raise ValueError("range syntax is base^lo..base^hi")
        base, e0 = lo.split("^")
        base2, e1 = hi.split("^")
        if base != base2:
            raise ValueError("range endpoints must share a base")
        return [int(base) ** e for e in range(int(e0), int(e1) + 1)]
    return [one(t) for t in text.split(",") if t]


def _flag_value(flag, text, parse):
    """parse(text), with a bad value reported as a usage error naming flag."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r}: {exc}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_table1(args):
    budgets = _flag_value("--budgets", args.budgets, _parse_budgets)
    rows = run_table1(budgets, trials=args.trials, n_labels=args.labels,
                      rng=args.seed)
    dicts = _table1_dicts(rows)
    if args.format == "json":
        _emit(json.dumps(dicts, indent=2) + "\n", args.out)
    else:
        _emit(_rows_csv(dicts, TABLE1_FIELDS), args.out)
    return 0


def _csv_value(rec, name):
    """One field of a table1 CSV row; a missing or unparseable value is a
    usage error that names its column."""
    text = rec.get(name)
    if text is None:
        raise UsageError(f"input CSV has no {name!r} column")
    kind = float if name in ("mean", "stddev", "seconds") else int
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"input CSV column {name!r}: cannot parse {text!r}")


def _cmd_scaling(args):
    rows = []
    with open(getattr(args, "in")) as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(**{name: _csv_value(rec, name)
                                     for name in TABLE1_FIELDS}))
    slope, intercept, residuals = fit_scaling(rows)
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


def _sim_trial(args, rng):
    """Plant a random secret, run the chosen recovery on it, and return
    (secret, its RecoveryReport or None on failure, queries the instance
    counted)."""
    def need(value, flag):
        if value is None:
            raise UsageError(f"{flag} is required for the {args.algorithm}"
                             " algorithm")
        return value

    if args.algorithm == "abelian":
        A = _flag_value("--orders", need(args.orders, "--orders"),
                        lambda text: AbelianGroupSpec(
                            tuple(map(int, text.split(",")))))
        s = A.random_element(rng)
        inst = make_shift_pair(A, s)
        solve = lambda: solve_abelian_shift(inst, rng=rng)
    else:
        if args.algorithm == "general":
            N = need(args.N, "--N")
        else:
            if need(args.n, "--n") < 0:
                raise UsageError("--n must be >= 0")
            N = (2 if args.algorithm == "staged" else args.radix) ** args.n
        ctx = GroupCtx(N)
        s = ctx.random_element(rng)
        inst = make_reflection_oracle(ctx, s)
        solve = {
            "staged": lambda: recover_slope_power2(inst, args.n, rng=rng),
            "general": lambda: recover_slope_general(inst, rng=rng),
            "greedy": lambda: recover_slope_radix(
                inst, args.radix, args.n, rng=rng, budget=args.budget),
        }[args.algorithm]
    try:
        _, rep = solve()
    except NoHiddenReflectionError:
        rep = None
    return s, rep, inst.queries


def _cmd_simulate(args):
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    fmt = lambda v: ";".join(map(str, v)) if isinstance(v, tuple) else str(v)
    dicts = []
    failures = 0
    for trial in range(args.trials):
        t0 = time.perf_counter()
        secret, rep, queries = _sim_trial(args, rng)
        ok = rep is not None and rep.secret == secret
        failures += not ok
        dicts.append({"trial": trial, "secret": fmt(secret),
                      "recovered": "" if rep is None else fmt(rep.secret),
                      "success": int(ok),
                      "attempts": "" if rep is None else rep.attempts,
                      "queries": queries,
                      "seconds": _fmt(time.perf_counter() - t0)})
    if args.format == "json":
        _emit(json.dumps(dicts, indent=2) + "\n", args.out)
    else:
        _emit(_rows_csv(dicts, SIM_FIELDS), args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, *read):
    """--out and --config, plus the "seed" and "format" flags p reads."""
    if "seed" in read:
        p.add_argument("--seed", type=int, default=None)
    if "format" in read:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON file of defaults")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dhsieve",
        description="Classical simulator for the dihedral sieve algorithms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a recovery on random instances")
    p.add_argument("--algorithm", required=True,
                   choices=["staged", "general", "greedy", "abelian"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--orders", default=None,
                   help="comma-separated cyclic orders")
    p.add_argument("--radix", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p, "seed", "format")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table1", help="cancellation race averages")
    p.add_argument("--budgets", default="3^1..3^6")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--labels", type=int, default=96,
                   help="label width in bits")
    _add_common(p, "seed", "format")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("scaling", help="fit the race scaling law")
    p.add_argument("--in", required=True, dest="in",
                   help="CSV produced by table1")
    _add_common(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("verify", help="statistical verification suite")
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--coin-bias", type=float, default=0.5,
                   help="fault injection: extraction coin bias")
    p.add_argument("--phase-sign", type=int, default=1,
                   help="fault injection: +1 or -1")
    _add_common(p, "seed")
    p.set_defaults(func=_cmd_verify)

    return parser, sub


def _apply_config(parser, sub, args, argv):
    """Re-parse argv with the JSON config's keys as defaults of the chosen
    subcommand, so explicit flags still win.  Rejects keys that the
    subcommand does not define."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config file: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(cfg) - (set(vars(args)) - {"command", "func"}))
    if unknown:
        raise UsageError(f"config key(s) not defined by {args.command}: "
                         + ", ".join(unknown))
    sub.choices[args.command].set_defaults(**cfg)
    return parser.parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _apply_config(parser, sub, args, argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        # library input checks raise ValueError and a path that cannot be
        # opened raises OSError: a bad value, not a crash
        print(f"dhsieve {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
