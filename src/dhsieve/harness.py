"""Experiment harness: the cancellation-race table, the scaling-law fit,
and a statistical verification suite that cross-checks the phase-qubit
backend against the exact dense simulator.

The verification suite accepts fault-injection knobs (combine-coin bias,
phase sign) purely so its own sensitivity can be demonstrated; defaults
are the honest physics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SieveExhaustedError
from .greedy import cancellation_race
from .oracle import make_reflection_oracle
from .group import GroupCtx
from .phase import (
    PhaseBackend,
    PhaseQubit,
    combine,
    cosine_observe,
    hoyer_readout,
    phase_estimation_kernel,
    sample_measure_batch,
    tomography_mod_r,
)
from .staged import run_staged_parity, staged_config
from .statevec import (
    extract_outcome_probs,
    extract_sim,
    psi_vector,
    qft_joint_law,
)

LOG3_2 = math.log(2, 3)
# draws per case of the cosine, coin-fairness and readout checks
_PER_CASE = 4000
# staged sieve runs the survival-ratio check pools
_SURVIVAL_TRIALS = 5


@dataclass
class ResultRow:
    """One row of the cancellation-race table."""

    budget: int
    trials: int
    mean: float
    stddev: float
    queries: int
    seconds: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if self.stddev < 0:
            raise ValueError("stddev must be nonnegative")


def _random_labels(rng, count, bits):
    nbytes = (bits + 7) // 8
    excess = 8 * nbytes - bits
    raw = rng.bytes(nbytes * count)
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") >> excess
            for i in range(count)]


def run_table1(budgets, trials=100, r=2, n_labels=96, rng=None):
    """Cancellation race averages: for each query budget Q, feed Q uniform
    n_labels-bit labels to the greedy pairing race and record the maximum
    number of cancelled low bits reached before exhaustion.  The race is
    binary, so r must be 2.  rng is a Generator or a seed."""
    if r != 2:
        raise ValueError("the cancellation race is defined for r = 2 only")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_labels < 1:
        raise ValueError("label width must be >= 1 bit")
    if not budgets or min(budgets) < 2:
        raise ValueError("budgets must be a non-empty list, each at least 2")
    if list(budgets) != sorted(budgets):
        raise ValueError("budgets must be ascending")
    rng = np.random.default_rng(rng)
    rows = []
    for Q in budgets:
        t0 = time.perf_counter()
        scores = np.empty(trials)
        for i in range(trials):
            labels = _random_labels(rng, Q, n_labels)
            best, _ = cancellation_race(labels, rng)
            scores[i] = best
        rows.append(ResultRow(
            budget=int(Q), trials=trials,
            mean=float(scores.mean()),
            stddev=float(scores.std(ddof=1)) if trials > 1 else 0.0,
            queries=int(Q),
            seconds=time.perf_counter() - t0))
    return rows


def fit_scaling(rows):
    """Least-squares fit of log_3(Q) against sqrt(2 * mean_bits * log_3 2):
    a race obeying the Q = 3^sqrt(2 log_3 N) law gives slope 1."""
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    x = np.array([math.sqrt(2 * row.mean * LOG3_2) for row in rows])
    y = np.array([math.log(row.budget, 3) for row in rows])
    if np.ptp(x) < 1e-12:
        raise ArithmeticError("degenerate fit: no spread in the abscissa")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return float(slope), float(intercept), residuals


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class CheckResult:
    name: str
    ok: bool
    observed: float
    expected: str

    def line(self):
        tag = "PASS" if self.ok else "FAIL"
        return f"{tag} {self.name}: observed {self.observed:.6g}, expected {self.expected}"


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def format(self):
        lines = [c.line() for c in self.checks]
        lines.append("ALL PASS" if self.passed else "FAILURES PRESENT")
        return "\n".join(lines)


def _tv(emp, exact):
    return 0.5 * float(np.abs(emp - exact).sum())


def _backend(N, s, rng, coin_bias, phase_sign):
    o = make_reflection_oracle(GroupCtx(N), s)
    return PhaseBackend(o, rng=rng, coin_bias=coin_bias,
                        phase_sign=phase_sign)


def _tv_tol(per):
    # calibrated at 25k samples over <= 64 cells; TV noise scales 1/sqrt(n)
    return 0.02 * max(1.0, math.sqrt(25000 / per))


def _check_measurement_law(rng, samples, coin_bias, phase_sign, cases):
    """Empirical joint (label, +/- outcome) law vs the closed form."""
    worst = 0.0
    per = samples // len(cases)
    for N, s in cases:
        be = _backend(N, s, rng, coin_bias, phase_sign)
        labels, bits = sample_measure_batch(be, per)
        emp = np.zeros((N, 2))
        np.add.at(emp, (labels, bits), 1.0)
        emp /= per
        k = np.arange(N)
        p_plus = np.cos(np.pi * ((k * s) % N) / N) ** 2
        exact = np.stack([p_plus, 1 - p_plus], axis=1) / N
        worst = max(worst, _tv(emp, exact))
    tol = _tv_tol(per)
    return CheckResult("measurement-law total variation", worst < tol,
                       worst, f"< {tol:.3g}")


def _check_qft_cross(rng, samples, coin_bias, phase_sign, cases):
    """Same law, but the reference side computed by dense linear algebra."""
    worst = 0.0
    per = samples // len(cases)
    for N, s in cases:
        be = _backend(N, s, rng, coin_bias, phase_sign)
        labels, bits = sample_measure_batch(be, per)
        emp = np.zeros((N, 2))
        np.add.at(emp, (labels, bits), 1.0)
        emp /= per
        worst = max(worst, _tv(emp, qft_joint_law(N, s)))
    tol = _tv_tol(per)
    return CheckResult("dense-simulator cross-check total variation",
                       worst < tol, worst, f"< {tol:.3g}")


def _check_cosine_freq(rng, coin_bias, phase_sign, grid):
    """Reference-slope observation frequencies vs cos^2(pi (s-t) k / N)."""
    per = _PER_CASE
    worst_sigma = 0.0
    for N, k, s, t in grid:
        be = _backend(N, s, rng, coin_bias, phase_sign)
        hits = 0
        for _ in range(per):
            hits += cosine_observe(PhaseQubit(k, be), t)
        p = math.cos(math.pi * (((s - t) * k) % N) / N) ** 2
        sigma = math.sqrt(max(p * (1 - p), 1e-6) / per)
        worst_sigma = max(worst_sigma, abs(hits / per - p) / sigma)
    return CheckResult("cosine observation frequencies (sigma units)",
                       worst_sigma < 4.5, worst_sigma, "< 4.5 sigma")


def _check_coin_fairness(rng, coin_bias, phase_sign):
    """Extraction branch must be an unbiased coin, as the dense two-qubit
    simulation of the extraction measurement confirms."""
    N, s, per = 16, 7, _PER_CASE
    be = _backend(N, s, rng, coin_bias, phase_sign)
    minus = 0
    for _ in range(per):
        k = int(rng.integers(0, N))
        l = int(rng.integers(0, N))
        out = combine(PhaseQubit(k, be), PhaseQubit(l, be))
        minus += out.minus_branch
        exact = extract_outcome_probs(k, l, s, N)
        if abs(exact[0] - 0.5) > 1e-12:
            return CheckResult("extraction coin fairness", False,
                               float(exact[0]), "exact branch prob 0.5")
    sigma = math.sqrt(0.25 / per)
    dev = abs(minus / per - 0.5) / sigma
    return CheckResult("extraction coin fairness (sigma units)",
                       dev < 4.5, dev, "< 4.5 sigma")


def _check_extract_residual(rng):
    """Exhaustive at N=8: the residual state of the dense extraction is
    exactly psi_{k+l} or psi_{k-l} according to the measured bit."""
    N = 8
    worst = 1.0
    for s in range(N):
        for k in range(N):
            for l in range(N):
                m, residual = extract_sim(k, l, s, N, rng)
                lbl = (k + l) % N if m == 0 else (k - l) % N
                worst = min(worst,
                            residual.fidelity(psi_vector(N, s, lbl)))
    return CheckResult("extraction residual fidelity", worst > 1 - 1e-10,
                       worst, "> 1 - 1e-10")


def _check_hoyer(rng, coin_bias, phase_sign):
    """Binary-register readout distribution vs the closed-form kernel."""
    N, s, kappa, per = 16, 5, 2, _PER_CASE
    M = 1 << (kappa + 1)
    be = _backend(N, s, rng, coin_bias, phase_sign)
    counts = np.zeros(M)
    for _ in range(per):
        qs = [PhaseQubit(1 << j, be) for j in range(kappa + 1)]
        counts[hoyer_readout(qs)] += 1
    tv = _tv(counts / per, phase_estimation_kernel(s / N, M))
    return CheckResult("phase-estimation readout total variation",
                       tv < 0.05, tv, "< 0.05")


def _check_survival(rng, coin_bias, phase_sign):
    """Staged sieve survival ratio near 1/4 on well-filled stages."""
    n, s = 9, 217
    ratios = []
    cfg = staged_config(n)
    for _ in range(_SURVIVAL_TRIALS):
        be = _backend(1 << n, s, rng, coin_bias, phase_sign)
        try:
            _, st = run_staged_parity(be, n)
        except SieveExhaustedError:
            continue
        for size, ratio in zip(st.list_sizes, st.survival_ratios):
            if size >= 4 * (1 << cfg.m):
                ratios.append(ratio)
    if not ratios:
        return CheckResult("staged survival ratio", False, 0.0,
                           "mean in [0.18, 0.32]")
    mean = float(np.mean(ratios))
    return CheckResult("staged survival ratio", 0.18 <= mean <= 0.32,
                       mean, "mean in [0.18, 0.32]")


def _check_parity_readout(rng, coin_bias, phase_sign):
    """Residue tomography at r=2 reads s mod 2 from psi_{N/2} copies."""
    N = 32
    bad = 0
    for s in (5, 12, 21, 30):
        be = _backend(N, s, rng, coin_bias, phase_sign)
        qs = [PhaseQubit(N // 2, be) for _ in range(25)]
        if tomography_mod_r(qs, 2) != s % 2:
            bad += 1
    return CheckResult("parity tomography", bad == 0, bad, "0 mismatches")


def verify_suite(N_max=32, samples=10 ** 5, rng=None, coin_bias=0.5,
                 phase_sign=1):
    """Run every statistical invariant check; returns a VerifyReport whose
    .passed drives the CLI exit code.  rng is a Generator or a seed.
    coin_bias and phase_sign inject faults into each constructed backend
    (defaults are honest)."""
    if not 8 <= N_max <= 1 << 10:
        raise ValueError("N_max must lie in [8, 1024]; 8 is the smallest case")
    if not 0 <= coin_bias <= 1:
        raise ValueError("coin_bias must lie in [0, 1]")
    if phase_sign not in (1, -1):
        raise ValueError("phase_sign must be +1 or -1")
    cases = [(N, s) for N, s in ((8, 3), (12, 5), (27, 8), (32, 13))
             if N <= N_max]
    if samples // len(cases) < 1000:
        raise ValueError(f"samples must give at least 1000 draws to each of "
                         f"the {len(cases)} measurement-law cases")
    rng = np.random.default_rng(rng)
    grid = [(N, k, s, t) for N, k, s, t in
            ((8, 3, 5, 2), (12, 5, 7, 3), (16, 7, 9, 4), (27, 10, 4, 11),
             (32, 13, 21, 6), (30, 11, 17, 8))
            if N <= N_max]
    report = VerifyReport()
    report.checks.append(_check_measurement_law(
        rng, samples, coin_bias, phase_sign, cases))
    report.checks.append(_check_qft_cross(
        rng, samples, coin_bias, phase_sign,
        [(N, s) for N, s in cases if N <= 16]))
    report.checks.append(_check_cosine_freq(rng, coin_bias, phase_sign, grid))
    report.checks.append(_check_coin_fairness(rng, coin_bias, phase_sign))
    report.checks.append(_check_extract_residual(rng))
    report.checks.append(_check_hoyer(rng, coin_bias, phase_sign))
    report.checks.append(_check_survival(rng, coin_bias, phase_sign))
    report.checks.append(_check_parity_readout(rng, coin_bias, phase_sign))
    return report
