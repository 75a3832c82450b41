"""Experiment harness and CLI: the cancellation-race table, the scaling
fit, the verification suite, the command-line front end, and the library
names the benchmark tracer patches."""

import csv
import functools
import json
import math
import os
import sys

import numpy as np
import pytest

import dhsieve
from dhsieve.cli import _parse_budgets, main
from dhsieve.harness import (
    ResultRow,
    fit_scaling,
    run_table1,
    verify_suite,
)


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


def test_verify_suite_detects_coin_bias():
    report = verify_suite(N_max=16, samples=20000, rng=8, coin_bias=0.8)
    assert not report.passed
    assert any("coin" in c.name and not c.ok for c in report.checks)


def test_verify_suite_detects_sign_flip():
    report = verify_suite(N_max=16, samples=20000, rng=9, phase_sign=-1)
    assert not report.passed
    assert any("cosine" in c.name and not c.ok for c in report.checks)


# ---------------------------------------------------------------------------
# CLI


def test_parse_budgets():
    assert _parse_budgets("3^1..3^4") == [3, 9, 27, 81]
    assert _parse_budgets("10,3^3,5") == [10, 27, 5]


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


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 3}))
    rc = main(["simulate", "--algorithm", "staged", "--n", "4",
               "--config", str(cfg), "--out", str(tmp_path / "sim.csv")])
    assert rc == 2
    assert "trails" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


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
    ["simulate", "--algorithm", "greedy", "--radix", "3", "--n", "1",
     "--budget", "-4", "--seed", "1", "--out", "{tmp}/sim.csv"],
    ["table1", "--budgets", "0,9,27", "--trials", "2"],
    ["table1", "--budgets", "-3", "--trials", "2"],
    ["table1", "--budgets", "3^3..3^1", "--trials", "2"],
    ["table1", "--budgets", "1,9", "--trials", "2"],
])
def test_cli_bad_value_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "no-mean.csv").write_text(
        "budget,trials,stddev,queries,seconds\n9,2,1.0,9,0.1\n")
    (tmp_path / "bad-mean.csv").write_text(
        "budget,trials,mean,stddev,queries,seconds\n9,2,x,1.0,9,0.1\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    if argv[-1].endswith("-mean.csv"):
        assert "'mean'" in captured.err
    assert not (tmp_path / "sim.csv").exists()


def test_race_is_binary_only():
    with pytest.raises(ValueError):
        run_table1([9], trials=1, r=3, rng=1)
    with pytest.raises(SystemExit):
        main(["table1", "--radix", "3"])


def test_cli_simulate_failed_trial_reports_cost(tmp_path):
    # a list of 2 qubits never reaches a target: every attempt exhausts
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--algorithm", "greedy", "--radix", "3",
               "--n", "4", "--budget", "2", "--seed", "1",
               "--out", str(out)])
    assert rc == 1
    recs = list(csv.DictReader(open(out)))
    assert len(recs) == 10
    for r in recs:
        assert r["success"] == "0" and r["recovered"] == ""
        assert 0 <= int(r["secret"]) < 81
        # budgets 2, 4, 8, 16, 16, 16 over the six attempts
        assert int(r["queries"]) == 62


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
