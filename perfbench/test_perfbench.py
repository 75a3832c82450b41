"""Tests of the benchmark's own checks: each output check rejects a
doctored result, the tracer changes nothing it observes, and the trace
reconciliation rejects a run that disagrees.

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

import contextlib
import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibration  # noqa: E402
import dhsieve  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailure  # noqa: E402

MINI_ROUND = ("general360", "radix", "abelian", "substring")


def _mini_run(trace):
    """A small solvers-like run (every solvers kind but N=4095)."""
    specs = [workloads._make_spec(kind, *workloads.rngs(5, 2, i))
             for i, kind in enumerate(MINI_ROUND)]
    tr = tracer.Tracer().install() if trace else None
    records = []
    try:
        for i, spec in enumerate(specs):
            if tr is not None:
                with tr.trial(i, spec["kind"]):
                    rec = workloads.run_trial(spec)
            else:
                rec = workloads.run_trial(spec)
            workloads.check_trial(rec)
            records.append(json.loads(json.dumps(rec)))
    finally:
        if tr is not None:
            tr.uninstall()
    out = {"records": records,
           "rng_states": [s["rng"].bit_generator.state for s in specs]}
    if tr is not None:
        out["layers"] = tr.layer_metrics()
        out["labels"] = tr.counts["labels"]
    return out


@pytest.fixture(scope="module")
def mini_runs():
    return _mini_run(False), _mini_run(True)


def test_secret_check_rejects_wrong_answer():
    rec = {"kind": "staged", "secret": 5, "answer": 5, "verified": True}
    workloads.check_trial(rec)
    with pytest.raises(CheckFailure):
        workloads.check_trial(dict(rec, answer=6))
    with pytest.raises(CheckFailure):
        workloads.check_trial({"kind": "abelian", "secret": (1, 2),
                               "answer": (1, 3), "verified": True})
    # an unverified trial is a failure, not a wrong answer
    workloads.check_trial(dict(rec, answer=None, verified=False))


def test_failed_trial_keeps_its_queries():
    # an oracle that hides nothing: every attempt fails verification
    inst = dhsieve.make_trivial_oracle(dhsieve.GroupCtx(360))
    rec = workloads.run_trial({"kind": "general360", "secret": 5, "inst": inst,
                               "rng": np.random.default_rng(0)})
    assert not rec["verified"] and rec["answer"] is None
    assert rec["queries"] == inst.queries > 0
    workloads.check_trial(rec)


def test_dense_checks_reject_doctored_results():
    s = 7
    law = dhsieve.statevec.qft_joint_law(workloads.DENSE_N, s)
    workloads.check_dense(s, 3e-13, law)
    with pytest.raises(CheckFailure, match="TD"):
        workloads.check_dense(s, 2e-9, law)
    doctored = law.copy()
    doctored[5, 0] += 2e-9
    with pytest.raises(CheckFailure, match="qft_joint_law"):
        workloads.check_dense(s, 0.0, doctored)


def test_dense_trial_passes_its_checks():
    spec = workloads._make_spec("dense", *workloads.rngs(1, 4, 0))
    rec = workloads.run_trial(spec)
    workloads.check_trial(rec)
    assert rec["queries"] > 0


def test_race_check_rejects_impossible_alpha():
    workloads.check_trial({"kind": "race", "answer": 55.0})
    with pytest.raises(CheckFailure):
        workloads.check_trial({"kind": "race", "answer": 97.0})
    with pytest.raises(CheckFailure):
        workloads.check_trial({"kind": "race", "answer": 54.5})


def test_traced_run_reproduces_untraced(mini_runs):
    plain, traced = mini_runs
    assert plain["records"] == traced["records"]
    # the wrappers draw nothing: every generator ends in the same state
    assert plain["rng_states"] == traced["rng_states"]
    tracer.check_traced("solvers", plain, traced)


def test_reconciliation_rejects_disagreeing_runs(mini_runs):
    plain, traced = mini_runs
    bad = copy.deepcopy(traced)
    bad["records"][1]["queries"] += 1
    with pytest.raises(CheckFailure, match="queries"):
        tracer.check_traced("solvers", plain, bad)
    bad = copy.deepcopy(traced)
    bad["records"][2]["answer"] = [0, 0]
    with pytest.raises(CheckFailure, match="answer"):
        tracer.check_traced("solvers", plain, bad)
    bad = copy.deepcopy(traced)
    bad["layers"]["oracle.verify_queries"] -= 1
    with pytest.raises(CheckFailure, match="untraced total"):
        tracer.check_traced("solvers", plain, bad)
    bad = copy.deepcopy(traced)
    bad["layers"]["staged.interval_s"] = 0.0
    with pytest.raises(CheckFailure, match="staged.interval_s"):
        tracer.check_traced("solvers", plain, bad)
    bad = copy.deepcopy(traced)
    bad["layers"]["phase.minus_share"] = 0.6
    with pytest.raises(CheckFailure, match="fair coin"):
        tracer.check_traced("solvers", plain, bad)


def test_speed_sampler_changes_no_result():
    kinds = ("general360", "abelian", "substring")

    def run_all(sampling):
        specs = [workloads._make_spec(k, *workloads.rngs(9, 2, i))
                 for i, k in enumerate(kinds)]
        with calibration.Sampler() if sampling else contextlib.nullcontext():
            return [workloads.run_trial(spec) for spec in specs]

    plain, sampled = run_all(False), run_all(True)
    assert plain == sampled


def test_uninstall_restores_every_binding():
    before = {name: getattr(dhsieve.staged, name) for name in
              ("combine", "sample_batch", "match_by_suffix")}
    evaluate = dhsieve.oracle.HidingOracle.evaluate
    tr = tracer.Tracer().install()
    assert dhsieve.staged.combine is not before["combine"]
    assert dhsieve.staged.combine is dhsieve.greedy.combine is dhsieve.combine
    tr.uninstall()
    for name, fn in before.items():
        assert getattr(dhsieve.staged, name) is fn
    assert dhsieve.combine is dhsieve.phase.combine is before["combine"]
    assert dhsieve.oracle.HidingOracle.evaluate is evaluate


def test_exhaustion_counted_once_at_innermost_raiser():
    tr = tracer.Tracer().install()
    try:
        o = dhsieve.make_reflection_oracle(dhsieve.GroupCtx(3 ** 5), 100)
        backend = dhsieve.PhaseBackend(o, rng=np.random.default_rng(0))
        with tr.trial(0, "radix"):
            with pytest.raises(dhsieve.SieveExhaustedError):
                dhsieve.run_radix_recovery(backend, 3, 5, budget=3)
    finally:
        tr.uninstall()
    assert sum(tr.exhausted.values()) == 1
    assert sum(tr.reasons.values()) == 1


def test_tail_percentile_leaves_ten_trials_beyond():
    assert workloads.tail_percentile(11) is None
    pct = workloads.tail_percentile(121)
    assert pct == 91 and 121 * (100 - pct) / 100 >= 10


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
            == tracer.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    for name, busy in tracer.BUSY.items():
        assert set(busy) <= set(tracer.LAYER_METRICS), name


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "race",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
