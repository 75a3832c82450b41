"""Experiment harness and CLI: the cancellation-race table, the scaling
fit, the verification suite, the command-line front end, and the library
names the benchmark tracer patches."""

import csv
import functools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhsieve
import dhsieve.cli as cli_mod
import dhsieve.harness as harness_mod
from dhsieve.cli import budgets, main
from dhsieve.errors import NoHiddenReflectionError
from dhsieve.group import DihedralElement, GroupCtx
from dhsieve.harness import (
    _LAW_CASES,
    MAX_BITS,
    ResultRow,
    _backends,
    _check_coin_fairness,
    _check_cosine_freq,
    _check_joint_law,
    _check_survival,
    _closed_form_law,
    fit_scaling,
    run_table1,
    verify_suite,
)
from dhsieve.oracle import make_reflection_oracle
from dhsieve.phase import PhaseBackend


def row(budget, mean):
    return ResultRow(budget=budget, trials=100, mean=mean, stddev=1.0,
                     queries=budget, seconds=0.0)


def test_resultrow_validation():
    with pytest.raises(ValueError):
        ResultRow(budget=3, trials=1, mean=float("nan"), stddev=0.0,
                  queries=3, seconds=0.0)
    with pytest.raises(ValueError):
        ResultRow(budget=3, trials=1, mean=1.0, stddev=-0.5,
                  queries=3, seconds=0.0)


def test_fit_scaling_synthetic_unit_slope():
    # rows manufactured to satisfy log_3 Q = sqrt(2 * mean * log_3 2)
    log32 = math.log(2, 3)
    rows = [row(3 ** e, e ** 2 / (2 * log32)) for e in (2, 3, 4, 5)]
    slope, intercept, residuals = fit_scaling(rows)
    assert abs(slope - 1) < 1e-6
    assert abs(intercept) < 1e-6
    assert np.abs(residuals).max() < 1e-9


def test_fit_scaling_published_means():
    # means reported for Q = 3^7..3^10 on 96-bit labels
    rows = [row(3 ** 7, 27.14), row(3 ** 8, 36.44),
            row(3 ** 9, 47.04), row(3 ** 10, 59.76)]
    slope, _, _ = fit_scaling(rows)
    assert 0.8 <= slope <= 1.2


def test_fit_scaling_degenerate():
    with pytest.raises(ValueError):
        fit_scaling([row(3, 1.0), row(9, 2.0)])
    with pytest.raises(ArithmeticError):
        fit_scaling([row(3, 5.0), row(9, 5.0), row(27, 5.0)])


def test_run_table1_deterministic():
    r1 = run_table1([9, 27], trials=8, rng=5)
    r2 = run_table1([9, 27], trials=8, rng=5)
    assert [(a.budget, a.mean, a.stddev) for a in r1] == \
           [(a.budget, a.mean, a.stddev) for a in r2]
    with pytest.raises(ValueError):
        run_table1([27, 9], trials=2)
    with pytest.raises(ValueError):
        run_table1([9], trials=0)
    with pytest.raises(ValueError):
        run_table1([9], trials=2, n_labels=0)


def test_run_table1_refuses_wide_labels_before_drawing():
    # the race takes labels of 1 to MAX_BITS = 2^16 bits: past that the
    # call raises before its generator moves, however wide the request
    assert MAX_BITS == 1 << 16
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for bits in (MAX_BITS + 1, 10 ** 8, 10 ** 20):
        with pytest.raises(ValueError, match="label width"):
            run_table1([9], trials=2, n_labels=bits, rng=rng)
    assert rng.bit_generator.state == state
    row, = run_table1([9], trials=2, n_labels=MAX_BITS, rng=rng)
    assert 0 <= row.mean <= MAX_BITS


def test_run_table1_takes_numpy_budgets():
    # a numpy array of budgets gives the rows a list gives (all but the
    # timing), and an empty one is refused like an empty list
    fields = lambda rows: [(r.budget, r.trials, r.mean, r.stddev, r.queries)
                           for r in rows]
    assert fields(run_table1(np.array([3, 9, 27]), trials=2, rng=1)) \
        == fields(run_table1([3, 9, 27], trials=2, rng=1))
    with pytest.raises(ValueError):
        run_table1(np.array([], dtype=np.int64), trials=2)


def test_run_table1_reads_integer_arguments():
    # numpy integers give the rows Python ints give; a float budget,
    # trial count or width is refused with a TypeError
    fields = lambda rows: [(r.budget, r.trials, r.mean, r.stddev, r.queries)
                           for r in rows]
    got = run_table1([9, 27], trials=np.int64(3), n_labels=np.int64(96),
                     rng=2)
    assert fields(got) == fields(run_table1([9, 27], trials=3, rng=2))
    assert all(type(r.budget) is int and type(r.trials) is int for r in got)
    for kwargs in ({"budgets": [9.0]}, {"trials": 3.0}, {"n_labels": 96.0}):
        with pytest.raises(TypeError):
            run_table1(**{"budgets": [9], "trials": 3, **kwargs})


def test_run_table1_pinned_means():
    # pinned race means: the pairing loop and the race key may change
    # speed, never the race's results at a seed
    rows = run_table1([243, 729, 2187], trials=4, rng=3)
    assert [r.mean for r in rows] == [26.75, 33.25, 42.75]


def test_run_table1_q2_bounds():
    rows = run_table1([2], trials=60, rng=6)
    # two 96-bit labels: best cancellation is alpha of one combine
    assert 0 <= rows[0].mean <= 10
    assert rows[0].queries == 2


def test_verify_suite_quick_honest():
    report = verify_suite(N_max=16, samples=30000, rng=7)
    assert report.passed
    text = report.format()
    assert "ALL PASS" in text and text.count("PASS") >= 8


def test_law_check_passes_honest_seeds_at_default_samples():
    # verify's first check, on the stream verify_suite(rng=seed) gives it,
    # at the default 10^5 samples: honest physics passes every seed
    for seed in range(1, 51):
        make = _backends(np.random.default_rng(seed), 0.5, 1)
        check = _check_joint_law("law", make, 10 ** 5, _LAW_CASES,
                                 _closed_form_law)
        assert check.ok, (seed, check.observed)


def test_law_check_rejects_a_slope_off_by_one():
    # a backend hiding s + 1, checked against the law of s at the fewest
    # draws verify allows (1,000 per case)
    rng = np.random.default_rng(3)
    make = lambda N, s: PhaseBackend(
        make_reflection_oracle(GroupCtx(N), (s + 1) % N), rng=rng)
    check = _check_joint_law("law", make, 1000 * len(_LAW_CASES),
                             _LAW_CASES, _closed_form_law)
    assert not check.ok


def test_verify_suite_detects_coin_bias():
    report = verify_suite(N_max=16, samples=20000, rng=8, coin_bias=0.8)
    assert not report.passed
    assert any("coin" in c.name and not c.ok for c in report.checks)


def test_verify_suite_detects_sign_flip():
    report = verify_suite(N_max=16, samples=20000, rng=9, phase_sign=-1)
    assert not report.passed
    assert any("cosine" in c.name and not c.ok for c in report.checks)


def _counting(monkeypatch, name, record):
    """Patch harness.<name> to append record(*args) on each call."""
    inner = getattr(harness_mod, name)

    def counted(*args):
        calls.append(record(*args))
        return inner(*args)

    calls = []
    monkeypatch.setattr(harness_mod, name, counted)
    return calls


def test_survival_check_pools_100_runs(monkeypatch):
    # acceptance criterion 4 holds this check's mean to [0.20, 0.30]
    calls = _counting(monkeypatch, "run_staged_parity", lambda be, n: n)
    check = _check_survival(_backends(np.random.default_rng(1), 0.5, 1))
    assert check.ok and calls == [9] * 100


def test_cosine_check_observes_10_to_the_4_copies_per_point(monkeypatch):
    # acceptance criterion 7 runs this check at 10^4 copies per point
    calls = _counting(monkeypatch, "cosine_observe",
                      lambda copies, t: len(copies))
    grid = [(8, 3, 5, 2), (27, 10, 4, 11)]
    check = _check_cosine_freq(_backends(np.random.default_rng(1), 0.5, 1),
                               grid)
    assert check.ok and calls == [10 ** 4] * len(grid)


def test_coin_check_evaluates_each_label_pair_once(monkeypatch):
    # the exact coin law is checked once per (k, l) at N = 16, before the
    # sampled coin; a law off 1/2 anywhere fails the check
    calls = _counting(monkeypatch, "extract_outcome_probs",
                      lambda k, l, s, N: (k, l))
    make = _backends(np.random.default_rng(1), 0.5, 1)
    assert _check_coin_fairness(make).ok
    assert sorted(calls) == [(k, l) for k in range(16) for l in range(16)]
    monkeypatch.setattr(harness_mod, "extract_outcome_probs",
                        lambda k, l, s, N: np.array([0.75, 0.25])
                        if (k, l) == (3, 5) else np.array([0.5, 0.5]))
    check = _check_coin_fairness(make)
    assert not check.ok and check.observed == 0.25


# ---------------------------------------------------------------------------
# CLI


def test_parse_budgets():
    assert budgets("3^1..3^4") == [3, 9, 27, 81]
    assert budgets("10,3^3,5") == [10, 27, 5]


def test_python_m_dhsieve_runs_the_cli():
    # from a source checkout: the package's parent directory on the path
    env = dict(os.environ, PYTHONPATH=str(Path(dhsieve.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dhsieve", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dhsieve")


def test_cli_table1_and_scaling(tmp_path):
    out = tmp_path / "t1.csv"
    args = ["table1", "--budgets", "3^2..3^4", "--trials", "6",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    with open(out) as fh:
        recs = list(csv.DictReader(fh))
    assert [r["budget"] for r in recs] == ["9", "27", "81"]
    assert set(recs[0]) == {"budget", "trials", "mean", "stddev",
                            "queries", "seconds"}

    out2 = tmp_path / "t1b.csv"
    assert main(["table1", "--budgets", "3^2..3^4", "--trials", "6",
                 "--seed", "3", "--out", str(out2)]) == 0
    with open(out2) as fh:
        recs2 = list(csv.DictReader(fh))
    drop = lambda rs: [{k: v for k, v in r.items() if k != "seconds"}
                       for r in rs]
    assert drop(recs) == drop(recs2)  # deterministic modulo wall time

    fit = tmp_path / "fit.json"
    assert main(["scaling", "--in", str(out), "--out", str(fit)]) == 0
    payload = json.loads(fit.read_text())
    assert set(payload) == {"slope", "intercept", "residuals"}
    assert len(payload["residuals"]) == 3


def test_cli_verify_small(tmp_path):
    out = tmp_path / "verify.txt"
    rc = main(["verify", "--nmax", "8", "--samples", "20000",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert "ALL PASS" in out.read_text()


def test_cli_simulate_staged(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--algorithm", "staged", "--n", "4",
               "--trials", "2", "--seed", "5", "--out", str(out)])
    assert rc == 0
    recs = list(csv.DictReader(open(out)))
    assert len(recs) == 2
    assert all(r["success"] == "1" for r in recs)


def test_cli_simulate_missing_arg():
    assert main(["simulate", "--algorithm", "staged", "--trials", "1"]) == 2


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("not json")
    assert main(["verify", "--config", str(bad)]) == 2


def test_cli_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": "3^2..3^3", "trials": 4,
                               "seed": 11}))
    out = tmp_path / "t.csv"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
    recs = list(csv.DictReader(open(out)))
    assert [r["budget"] for r in recs] == ["9", "27"]
    assert recs[0]["trials"] == "4"


@pytest.mark.parametrize("argv", [
    ["scaling", "--in", "t.csv", "--format", "csv"],
    ["scaling", "--in", "t.csv", "--seed", "3"],
    ["verify", "--format", "json"],
])
def test_cli_rejects_flags_the_subcommand_ignores(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert argv[-2] in err


def test_cli_config_format_key_rejected_by_verify(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    out = tmp_path / "verify.txt"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "format" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 3}))
    rc = main(["simulate", "--algorithm", "staged", "--n", "4",
               "--config", str(cfg), "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert "trails" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


# config values are parsed and checked like the flags they become: each
# bad one is rejected before any output, on one stderr line naming its key
@pytest.mark.parametrize("cmd, cfg", [
    (["verify", "--nmax", "8"], {"seed": 1.5}),
    (["simulate", "--algorithm", "staged", "--n", "4"], {"seed": 1.5}),
    (["table1", "--budgets", "3^2"], {"labels": 2.5}),
    (["table1", "--budgets", "3^2"], {"format": "xml"}),
    (["simulate", "--algorithm", "abelian"], {"orders": [16, 9]}),
    (["table1", "--budgets", "3^2"], {"trials": True}),
    (["table1", "--budgets", "3^2"], {"trial": 3}),
    (["simulate", "--algorithm", "general", "--N", "9"], {"budget": 3}),
])
def test_cli_config_value_checked_like_its_flag(cmd, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.txt"
    assert main([*cmd, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert next(iter(cfg)) in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_config_null_keeps_the_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "trials": None}))
    out = tmp_path / "t.csv"
    assert main(["table1", "--budgets", "3^1", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert [r["trials"] for r in csv.DictReader(open(out))] == ["100"]


# values that do not parse, or fall below the flag's bound: the error
# names the flag that carried them
NAMED_FLAG_ARGV = [
    ["simulate", "--algorithm", "abelian", "--orders", ""],
    ["simulate", "--algorithm", "abelian", "--orders", "4,x"],
    ["table1", "--budgets", "x"],
    ["simulate", "--algorithm", "general", "--N", "0"],
    ["simulate", "--algorithm", "general", "--N", "-5"],
]

# argparse's own rejections: a bad int, a bad choice, a missing required
# flag and unknown flags
ARGPARSE_ARGV = [
    ["simulate", "--n", "x"],
    ["simulate", "--algorithm", "bogus"],
    ["simulate", "--n", "3"],
    ["table1", "--frob", "1"],
    ["simulate", "--budget", "2", "--algorithm", "greedy", "--n", "3"],
]

# instance flags the chosen algorithm does not read, the last one named
UNREAD_FLAG_ARGV = [
    ["simulate", "--algorithm", "general", "--N", "9", "--n", "3"],
    ["simulate", "--algorithm", "staged", "--n", "4", "--radix", "2"],
    ["simulate", "--algorithm", "staged", "--n", "4", "--N", "16"],
    ["simulate", "--algorithm", "greedy", "--n", "2", "--orders", "4,3"],
    ["simulate", "--algorithm", "abelian", "--orders", "4,3", "--radix", "0"],
]

# greedy radices below 2: the error names --radix
RADIX_ARGV = [
    ["simulate", "--algorithm", "greedy", "--radix", "0", "--n", "2"],
    ["simulate", "--algorithm", "greedy", "--radix", "1", "--n", "3"],
    ["simulate", "--algorithm", "greedy", "--radix", "-3", "--n", "2"],
]

# powers a flag asks for past 2^16 bits, or with a negative exponent:
# refused before they are computed, the message naming the flag
POWER_ARGV = [
    ["simulate", "--algorithm", "staged", "--n", "100000000000000000000",
     "--trials", "1"],
    ["simulate", "--algorithm", "greedy", "--radix", "3", "--n",
     "100000000000", "--trials", "1"],
    ["table1", "--budgets", "3^100000000000", "--trials", "1"],
    ["table1", "--budgets", "2^1..2^100000000", "--trials", "1"],
    ["table1", "--budgets", "3^-1", "--trials", "1"],
    ["table1", "--budgets", "3^-1..3^2", "--trials", "1"],
]


# race label widths past MAX_BITS = 2^16 bits, refused before anything is
# drawn, the message naming --labels.  A width whose range 1 << labels
# overflows (10^20) exited through OverflowError with a message naming no
# flag; 10^10 allocated 1.3 GB and exited through MemoryError, and 10^8
# ran on past 30 s (each at the parent, under a 2 GB address-space cap)
LABELS_ARGV = [
    ["table1", "--budgets", "3^2", "--labels", "100000000000000000000",
     "--trials", "2"],
    ["table1", "--budgets", "3^2", "--labels", "10000000000", "--trials", "2"],
    ["table1", "--budgets", "3^2", "--labels", "100000000", "--trials", "2"],
    ["table1", "--budgets", "3^2", "--labels", "65537", "--trials", "2"],
]

# a radix order with a prime factor past 4096, refused before the first
# query like an abelian group's, the message naming the bound: at the
# parent 4099 ran a 4099-residue readout and 2^61 - 1 exited through
# numpy's "array is too big"
CHAIN_ARGV = [
    ["simulate", "--algorithm", "greedy", "--radix", "4099", "--n", "1",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "greedy", "--radix", "8198", "--n", "2",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "greedy", "--radix", "2305843009213693951",
     "--n", "1", "--trials", "1", "--seed", "1"],
]

# a general N past 2^62 with an odd factor (5^28), whose candidate window
# of about N/2 entries cannot be an array, directly or as a rank-1 group:
# refused before the first query, the message naming N.  At the parent
# both sampled for about 3 s and exited through numpy's "Maximum allowed
# size exceeded"
WINDOW_ARGV = [
    ["simulate", "--algorithm", "general", "--N", "37252902984619140625",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "abelian", "--orders", "37252902984619140625",
     "--trials", "1", "--seed", "1"],
]


@pytest.mark.parametrize("argv", [
    ["simulate", "--algorithm", "staged", "--n", "-1"],
    ["simulate", "--algorithm", "abelian", "--orders", "0,3"],
    ["verify", "--nmax", "4096"],
    ["verify", "--nmax", "4"],
    ["verify", "--phase-sign", "0"],
    ["scaling", "--in", "{tmp}/missing.csv"],
    ["table1", "--budgets", "3^2", "--trials", "2",
     "--out", "{tmp}/missing-dir/x.csv"],
    ["scaling", "--in", "{tmp}/no-mean.csv"],
    ["scaling", "--in", "{tmp}/bad-mean.csv"],
    ["table1", "--budgets", "3^2", "--trials", "0"],
    ["table1", "--budgets", "3^2", "--labels", "0"],
    ["simulate", "--algorithm", "staged", "--n", "4", "--trials", "0",
     "--out", "{tmp}/sim.csv"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "3999"],
    ["verify", "--coin-bias", "1.5"],
    ["verify", "--coin-bias", "-0.2"],
    ["verify", "--coin-bias", "nan"],
    ["table1", "--budgets", "0,9,27", "--trials", "2"],
    ["table1", "--budgets", "-3", "--trials", "2"],
    ["table1", "--budgets", "3^3..3^1", "--trials", "2"],
    ["table1", "--budgets", "1,9", "--trials", "2"],
    *NAMED_FLAG_ARGV,
    *ARGPARSE_ARGV,
    ["scaling", "--in", "{tmp}/flat.csv"],
    ["scaling", "--in", "{tmp}/budget-one.csv"],
    ["scaling", "--in", "{tmp}/negative.csv"],
    *UNREAD_FLAG_ARGV,
    *RADIX_ARGV,
    # N = 3 * 2^40: the general-N candidate window, about N/2 entries,
    # which a rank-1 abelian group builds too, does not fit in memory
    ["simulate", "--algorithm", "general", "--N", "3298534883328",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "abelian", "--orders", "3298534883328",
     "--trials", "1", "--seed", "1"],
    # rank 2 with a prime factor past 4096 (4099, 2^64 - 59): refused
    # before the first query, also past 2^63 and when the rough order is
    # the first
    ["simulate", "--algorithm", "abelian", "--orders",
     "3,18446744073709551557", "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "abelian", "--orders", "3,4099",
     "--trials", "1", "--seed", "1"],
    ["simulate", "--algorithm", "abelian", "--orders", "4099,3",
     "--trials", "1", "--seed", "1"],
    *POWER_ARGV,
    *LABELS_ARGV,
    *CHAIN_ARGV,
    *WINDOW_ARGV,
])
def test_cli_bad_value_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "no-mean.csv").write_text(
        "budget,trials,stddev,queries,seconds\n9,2,1.0,9,0.1\n")
    (tmp_path / "bad-mean.csv").write_text(
        "budget,trials,mean,stddev,queries,seconds\n9,2,x,1.0,9,0.1\n")
    # (budget, mean) rows: a degenerate fit (all means equal), a budget
    # below 2 in row 1, a negative mean in row 2
    fits = {"flat": [(3, 5), (9, 5), (27, 5)],
            "budget-one": [(1, 1), (3, 2), (9, 3)],
            "negative": [(3, 1), (9, -2), (27, 3)]}
    for name, rows in fits.items():
        (tmp_path / f"{name}.csv").write_text(
            "budget,trials,mean,stddev,queries,seconds\n" + "".join(
                f"{b},2,{m},1.0,{b},0.1\n" for b, m in rows))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    if argv[-1].endswith("-mean.csv"):
        assert "'mean'" in captured.err
    if argv in NAMED_FLAG_ARGV:
        assert argv[-2] in captured.err
    if argv in ARGPARSE_ARGV:
        flag = "--algorithm" if argv == ["simulate", "--n", "3"] else argv[1]
        assert flag in captured.err
    if argv in UNREAD_FLAG_ARGV:
        assert argv[-2] in captured.err
    if argv in RADIX_ARGV:
        assert "--radix" in captured.err
    if argv in POWER_ARGV:
        assert ("--n" if argv[0] == "simulate" else "--budgets") in captured.err
    if argv in LABELS_ARGV:
        assert "--labels" in captured.err
    if argv in CHAIN_ARGV:
        assert "prime factors <= 4096" in captured.err
    if argv in WINDOW_ARGV:
        assert argv[4] in captured.err
    assert captured.err.split(":", 1)[1].strip()
    if argv[-1].endswith(("budget-one.csv", "negative.csv")):
        assert ("row 1" if "budget" in argv[-1] else "row 2") in captured.err
    assert not (tmp_path / "sim.csv").exists()


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


def test_cli_refuses_general_n_of_10_to_the_32_in_a_child():
    # N = 10^32 = 2^32 5^32, past 2^62 with an odd factor, is refused
    # before the first query with one line naming N.  At the parent its
    # interval sieve was still sampling at 40 s, hence a child capped at
    # 30 s and 2 GB of address space
    N = str(10 ** 32)
    env = dict(os.environ, PYTHONPATH=str(Path(dhsieve.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dhsieve", "simulate", "--algorithm",
         "general", "--N", N, "--trials", "1", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1 and N in proc.stderr


def test_power_refuses_past_2_to_the_16_bits():
    # the bound counts max(1, base.bit_length()) bits per factor
    assert cli_mod.power(2, 1 << 15, "--n") == 1 << (1 << 15)
    assert cli_mod.power(1, 1 << 16, "--n") == 1
    assert cli_mod.power(0, 0, "--n") == 1
    for base, exp in ((2, (1 << 15) + 1), (1, (1 << 16) + 1), (3, -1)):
        with pytest.raises(cli_mod.UsageError, match="--n"):
            cli_mod.power(base, exp, "--n")


def test_cli_names_an_exception_that_has_no_message(monkeypatch, capsys):
    def solver(inst, n, rng):
        raise MemoryError()

    monkeypatch.setattr(cli_mod, "recover_slope_power2", solver)
    assert main(["simulate", "--algorithm", "staged", "--n", "4",
                 "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "dhsieve simulate: MemoryError\n"
    assert captured.out == ""


def test_cli_bench_race_writes_record(tmp_path):
    # one real perfbench run of the race workload, one second of trials
    out = tmp_path / "BENCH_t.json"
    assert main(["bench", "--label", "t", "--workload", "race",
                 "--seconds", "1", "--seed", "2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert (rec["label"], rec["seed"], rec["seconds"]) == ("t", 2, 1.0)
    assert rec["python"] == platform.python_version()
    assert rec["numpy"] == np.__version__
    assert rec["commit"] is None or len(rec["commit"]) == 40
    assert rec["host"]["cpus"] == os.cpu_count()
    assert list(rec["workloads"]) == ["race"]
    race = rec["workloads"]["race"]
    assert race["failed"] == 0 and race["trials"] >= 1
    assert set(race["metrics"]) == {"setup_s", "wall_s", "trial_s_p50",
                                    "queries_per_trial", "peak_rss_mb"}
    assert race["metrics"]["queries_per_trial"] == 3 ** 8


@pytest.mark.parametrize("argv", [
    ["bench", "--label", ""],
    ["bench", "--label", "a/b"],
    ["bench", "--label", ".."],
    ["bench", "--label", "x y"],
    ["bench", "--seconds", "0"],
    ["bench", "--seconds", "nan"],
    ["bench", "--seconds", "inf"],
    ["bench", "--workload", "bogus"],
])
def test_cli_bench_bad_value(argv, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not out.exists()


def test_cli_bench_needs_a_source_checkout(monkeypatch, tmp_path, capsys):
    # an installed package has no perfbench/ beside it
    monkeypatch.setattr(cli_mod, "CHECKOUT", tmp_path)
    assert main(["bench", "--workload", "race", "--seconds", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "source checkout" in err
    assert list(tmp_path.iterdir()) == []


def test_race_is_binary_only(capsys):
    with pytest.raises(ValueError):
        run_table1([9], trials=1, r=3, rng=1)
    assert main(["table1", "--radix", "3"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--radix" in err


def test_cli_simulate_failed_trial_reports_cost(tmp_path, monkeypatch):
    # a failed recovery keeps its cost in its row: the second trial's
    # solver spends 7 queries on its instance and finds nothing, the
    # others run the real solver and verify
    real, calls = cli_mod.recover_slope_radix, []

    def solver(inst, r, n, rng):
        calls.append(inst)
        if len(calls) == 2:
            for b in range(7):
                inst.evaluate(DihedralElement(0, b))
            raise NoHiddenReflectionError("no verified answer")
        return real(inst, r, n, rng=rng)

    monkeypatch.setattr(cli_mod, "recover_slope_radix", solver)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--algorithm", "greedy", "--radix", "3",
               "--n", "4", "--trials", "3", "--seed", "2",
               "--out", str(out)])
    assert rc == 1 and len(calls) == 3
    recs = list(csv.DictReader(open(out)))
    assert "".join(r["success"] for r in recs) == "101"
    assert recs[1]["queries"] == "7"
    assert recs[1]["recovered"] == recs[1]["attempts"] == ""
    for r in recs[::2]:
        assert r["recovered"] == r["secret"] and int(r["attempts"]) >= 1
        assert int(r["queries"]) > 0


@pytest.mark.parametrize("flags", [
    ["--algorithm", "staged", "--n", "6"],
    ["--algorithm", "general", "--N", "45"],
    ["--algorithm", "greedy", "--radix", "3", "--n", "3"],
    ["--algorithm", "abelian", "--orders", "4,3"],
])
def test_cli_simulate_same_seed_same_rows(tmp_path, flags):
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["simulate", *flags, "--trials", "3", "--seed", "13",
              "--out", str(out)])
        runs.append([{k: v for k, v in r.items() if k != "seconds"}
                     for r in csv.DictReader(open(out))])
    assert runs[0] == runs[1]
    assert all(r["secret"] for r in runs[0])
    # attempts: a positive count for a verified trial, blank for a failed one
    for r in runs[0]:
        assert (r["attempts"] == "") == (r["success"] == "0")
        assert r["attempts"] == "" or int(r["attempts"]) >= 1


def test_tracer_names_resolve():
    # perfbench/tracer.py patches every TRACED name on install; a name
    # that no longer resolves would stop `perfbench/run.py --trace 1`
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import tracer
    finally:
        sys.path.remove(perfbench)
        sys.modules.pop("tracer", None)
        sys.modules.pop("workloads", None)
    assert tracer.TRACED
    for qual in tracer.TRACED:
        owner, name = qual.rsplit(".", 1)
        holder = functools.reduce(getattr, owner.split("."), dhsieve)
        if isinstance(holder, type):
            assert name in holder.__dict__, qual  # a method, patched on its class
        else:
            assert callable(getattr(holder, name, None)), qual
