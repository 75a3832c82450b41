"""Acceptance gate: one test per headline claim, each printing an
explicit pass/fail line with the measured numbers.

These are the end-to-end checks the package is judged by; the per-module
suites cover the same ground at finer grain.
"""

import math

import numpy as np
import pytest

import dhsieve.recover as recover_mod
from dhsieve.errors import NoHiddenReflectionError, SieveExhaustedError
from dhsieve.group import AbelianGroupSpec, GroupCtx
from dhsieve.harness import fit_scaling, run_table1, verify_suite
from dhsieve.oracle import (
    SubstringInstance,
    make_reflection_oracle,
    make_shift_pair,
    splice_substring,
)
from dhsieve.phase import (
    PhaseBackend,
    PhaseQubit,
    cosine_observe,
    sample_measure_batch,
)
from dhsieve.recover import (
    recover_slope_general,
    recover_slope_power2,
    solve_abelian_shift,
    solve_substring,
)
from dhsieve.staged import run_staged_parity, staged_config
from dhsieve.statevec import (
    extract_sim,
    psi_vector,
    qft_joint_law,
    rho_from_eval,
    trace_distance,
)

TABLE1_REFERENCE = [3.62, 6.75, 12.53, 19.07, 27.14, 36.44]


def report(idx, name, ok, detail):
    print(f"\n[{idx}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {idx} failed: {detail}"


@pytest.fixture(scope="module")
def table1_rows():
    return run_table1([3 ** e for e in range(1, 7)], trials=100, r=2,
                      rng=7)


def test_01_table1_reproduction(table1_rows):
    rel = [(row.mean - ref) / ref
           for row, ref in zip(table1_rows, TABLE1_REFERENCE)]
    tols = [0.25, 0.25, 0.15, 0.15, 0.15, 0.15]
    ok = all(abs(e) <= t for e, t in zip(rel, tols))
    detail = ("means " + ", ".join(f"{r.mean:.2f}" for r in table1_rows)
              + " vs reference " + ", ".join(map(str, TABLE1_REFERENCE))
              + "; rel err " + ", ".join(f"{e:+.1%}" for e in rel)
              + " (tol 25/25/15/15/15/15%)")
    report(1, "cancellation-race table", ok, detail)


def test_02_scaling_law(table1_rows):
    slope, intercept, _ = fit_scaling(table1_rows[2:])
    ok = 0.75 <= slope <= 1.25
    report(2, "race scaling-law fit", ok,
           f"slope {slope:.3f} on budgets 3^3..3^6 (required [0.75, 1.25])")


def test_03_staged_sieve_exact_recovery(monkeypatch):
    # every parity call's queries, read off the oracle counter, with the
    # level n it ran at; calls in attempts that ran dry count too
    calls = []

    def counted(backend, n):
        q0 = backend.oracle.queries
        try:
            return run_staged_parity(backend, n)
        finally:
            calls.append((n, backend.oracle.queries - q0))

    monkeypatch.setattr(recover_mod, "run_staged_parity", counted)
    rng = np.random.default_rng(7)
    failures = 0
    checked = 0
    for n, secrets in [(8, list(range(256))),
                       (10, [int(rng.integers(0, 1 << 10))
                             for _ in range(100)]),
                       (12, [int(rng.integers(0, 1 << 12))
                             for _ in range(100)]),
                       (14, [int(rng.integers(0, 1 << 14))
                             for _ in range(100)])]:
        for s in secrets:
            o = make_reflection_oracle(GroupCtx(1 << n), s)
            got, _ = recover_slope_power2(o, n, rng=rng)
            checked += 1
            failures += got != s
    worst_excess = max(
        queries / (3 * 2 ** (3 * staged_config(max(2, n)).m) + 64)
        for n, queries in calls)
    ok = failures == 0 and worst_excess <= 1.0
    report(3, "staged sieve exact recovery", ok,
           f"{checked - failures}/{checked} exact over n=8 (exhaustive) and "
           f"n=10,12,14 (100 random each); worst per-call query usage "
           f"{worst_excess:.2f} of the 3*8^m cap")


def test_04_survival_ratio():
    rng = np.random.default_rng(7)
    n, cfg = 9, staged_config(9)
    ratios = []
    trials = 0
    while trials < 100:
        s = int(rng.integers(0, 1 << n))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), s),
                          rng=rng)
        try:
            _, st = run_staged_parity(be, n)
        except SieveExhaustedError:
            continue
        trials += 1
        for size, ratio in zip(st.list_sizes, st.survival_ratios):
            if size >= 4 * (1 << cfg.m):
                ratios.append(ratio)
    mean = float(np.mean(ratios))
    ok = 0.20 <= mean <= 0.30
    report(4, "stage survival ratio", ok,
           f"mean |L_j+1|/|L_j| = {mean:.3f} over {trials} trials on "
           f"well-filled stages (required [0.20, 0.30])")


def test_05_backend_matches_exact_simulation():
    rng = np.random.default_rng(7)
    samples = 10 ** 5
    worst_tv = 0.0
    for N in range(1, 33):
        for s in range(N):
            be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                              rng=rng)
            labels, bits = sample_measure_batch(be, samples)
            emp = np.zeros((N, 2))
            np.add.at(emp, (labels, bits), 1.0)
            emp /= samples
            tv = 0.5 * float(np.abs(emp - qft_joint_law(N, s)).sum())
            worst_tv = max(worst_tv, tv)
    worst_fid = 1.0
    for s in range(8):
        for k in range(8):
            for l in range(8):
                m, res = extract_sim(k, l, s, 8, rng)
                lbl = (k + l) % 8 if m == 0 else (k - l) % 8
                worst_fid = min(worst_fid,
                                res.fidelity(psi_vector(8, s, lbl)))
    ok = worst_tv <= 0.02 and worst_fid >= 1 - 1e-10
    report(5, "backend vs exact simulator", ok,
           f"worst joint-law TV {worst_tv:.4f} over all N<=32, all s "
           f"(tol 0.02 at 1e5 samples); worst extraction residual fidelity "
           f"{worst_fid:.2e} at N=8 exhaustive (required >= 1-1e-10)")


def test_06_trace_distance_law():
    worst = 0.0
    for N in range(2, 33):
        for s in range(N):
            inst = SubstringInstance(N, s)
            exact_cache = {}
            for t in range(N):
                spliced = rho_from_eval(N, splice_substring(inst, t)._eval)
                d = (s - t) % N
                if d not in exact_cache:
                    exact_cache[d] = rho_from_eval(
                        N, make_reflection_oracle(GroupCtx(N), d)._eval)
                td = trace_distance(spliced, exact_cache[d])
                worst = max(worst, abs(2 * td - abs(s - t) / N))
    ok = worst <= 1e-9
    report(6, "spliced trace-distance law", ok,
           f"max |unhalved distance - |s-t|/N| = {worst:.2e} over all "
           f"N<=32, all (s,t) (tol 1e-9)")


def test_07_cosine_frequencies():
    rng = np.random.default_rng(11)
    samples = 10 ** 4
    worst = 0.0
    grid = [(N, k, s, t)
            for N in (5, 8, 12, 16, 21, 27, 32)
            for k, s, t in ((1, 2, 0), (3, N - 2, 1), (N // 2, 3, N // 3))]
    for N, k, s, t in grid:
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
        p = math.cos(math.pi * (((s - t) * k) % N) / N) ** 2
        hits = sum(cosine_observe(PhaseQubit(k, be), t)
                   for _ in range(samples))
        sigma = math.sqrt(max(p * (1 - p), 1e-6) / samples)
        worst = max(worst, abs(hits / samples - p) / sigma)
    ok = worst <= 3.0
    report(7, "cosine observation frequencies", ok,
           f"worst deviation {worst:.2f} sigma over {len(grid)} grid points "
           f"at 1e4 samples (required <= 3 sigma)")


def test_08_general_and_abelian_recoveries():
    rng = np.random.default_rng(7)
    g_ok = 0
    for _ in range(50):
        s = int(rng.integers(0, 360))
        o = make_reflection_oracle(GroupCtx(360), s)
        got, _ = recover_slope_general(o, rng=rng)
        g_ok += got == s
    A = AbelianGroupSpec((16, 9))
    a_ok = 0
    for _ in range(100):
        s = (int(rng.integers(0, 16)), int(rng.integers(0, 9)))
        try:
            got, _ = solve_abelian_shift(make_shift_pair(A, s), rng=rng)
            a_ok += got == s
        except NoHiddenReflectionError:
            pass
    s_ok = 0
    for _ in range(100):
        s = int(rng.integers(0, 256))
        try:
            got, _ = solve_substring(SubstringInstance(256, s), rng=rng)
            s_ok += got == s
        except NoHiddenReflectionError:
            pass
    ok = g_ok == 50 and a_ok >= 90 and s_ok >= 95
    report(8, "general-N / abelian / substring recoveries", ok,
           f"general N=360: {g_ok}/50 exact (need 50); abelian Z16+Z9: "
           f"{a_ok}/100 (need >=90); substring N=256: {s_ok}/100 (need >=95)")


def test_09_mutation_sensitivity():
    honest = verify_suite(N_max=16, samples=40000, rng=7)
    biased = verify_suite(N_max=16, samples=40000, rng=7, coin_bias=0.6)
    flipped = verify_suite(N_max=16, samples=40000, rng=7, phase_sign=-1)
    ok = honest.passed and not biased.passed and not flipped.passed
    report(9, "verification-suite mutation sensitivity", ok,
           f"honest run passed={honest.passed}; coin bias 0.6 "
           f"passed={biased.passed} (must fail); phase-sign flip "
           f"passed={flipped.passed} (must fail)")
