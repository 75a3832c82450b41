"""Experiment harness: the cancellation-race table, the scaling-law fit,
and a statistical verification suite that cross-checks the phase-qubit
backend against the exact dense simulator.

The verification suite accepts fault-injection knobs (combine-coin bias,
phase sign) purely so its own sensitivity can be demonstrated; it builds
each faulty backend itself, and the defaults are the honest physics.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SieveExhaustedError
from .greedy import cancellation_race
from .oracle import make_reflection_oracle
from .group import GroupCtx, uniform
from .phase import (
    PhaseBackend,
    PhaseList,
    Readout,
    combine_pairs,
    cosine_observe,
    measure_pm,
    sample_batch,
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
# widest integer, in bits, an instance parameter may ask for: a race
# label, or a power the command line computes
MAX_BITS = 1 << 16
# draws per case of the cosine and coin-fairness checks
_PER_CASE = 10 ** 4
# staged sieve runs the survival-ratio check pools
_SURVIVAL_TRIALS = 100
# (N, s) cases of the measurement-law check
_LAW_CASES = ((8, 3), (12, 5), (27, 8), (32, 13))


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


def label_width(bits):
    """bits, a race label width, when it lies in [1, MAX_BITS]; raises
    ValueError otherwise (run_table1's check, which --labels shares)."""
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"label width must lie in [1, {MAX_BITS}] bits")
    return bits


def run_table1(budgets, trials=100, r=2, n_labels=96, rng=None):
    """Cancellation race averages: for each query budget Q, feed Q uniform
    n_labels-bit labels to the greedy pairing race and record the maximum
    number of cancelled low bits reached before exhaustion.  The race is
    binary, so r must be 2.  budgets, trials and n_labels are integers
    of any integer type, n_labels at most MAX_BITS, checked before
    anything is drawn; rng is a Generator or a seed."""
    budgets = [operator.index(Q) for Q in budgets]
    trials, n_labels = operator.index(trials), operator.index(n_labels)
    if r != 2:
        raise ValueError("the cancellation race is defined for r = 2 only")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    label_width(n_labels)
    if not budgets or min(budgets) < 2:
        raise ValueError("budgets must be a non-empty list, each at least 2")
    if budgets != sorted(budgets):
        raise ValueError("budgets must be ascending")
    rng = np.random.default_rng(rng)
    rows = []
    for Q in budgets:
        t0 = time.perf_counter()
        scores = np.empty(trials)
        for i in range(trials):
            labels = uniform(rng, 1 << n_labels, Q).tolist()
            best, _ = cancellation_race(labels, rng)
            scores[i] = best
        rows.append(ResultRow(
            budget=Q, trials=trials,
            mean=float(scores.mean()),
            stddev=float(scores.std(ddof=1)) if trials > 1 else 0.0,
            queries=Q,
            seconds=time.perf_counter() - t0))
    return rows


def fit_scaling(rows):
    """Least-squares fit of log_3(Q) against sqrt(2 * mean_bits * log_3 2):
    a race obeying the Q = 3^sqrt(2 log_3 N) law gives slope 1."""
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    for i, row in enumerate(rows, 1):
        if row.budget < 2:
            raise ValueError(f"row {i}: budget {row.budget} is below 2")
        if row.mean < 0:
            raise ValueError(f"row {i}: mean {row.mean} is below 0")
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


def _backends(rng, coin_bias, phase_sign):
    """The suite's backend factory: make(N, s) is a backend over D_N on
    the one stream rng.  coin_bias biases the extraction coin; a sign
    fault (phase_sign -1) hides (-s) mod N, which flips the sign of every
    sampled phase."""
    def make(N, s):
        o = make_reflection_oracle(GroupCtx(N), (phase_sign * s) % N)
        return PhaseBackend(o, rng=rng, coin_bias=coin_bias)
    return make


def _tv_tol(per):
    # criterion 5's bound at its 10^5 draws over <= 64 cells; TV noise
    # scales 1/sqrt(n)
    return 0.02 * max(1.0, math.sqrt(10 ** 5 / per))


def _closed_form_law(N, s):
    """Joint (label, +/- outcome) law in closed form, an (N, 2) array."""
    p_plus = np.cos(np.pi * ((np.arange(N) * s) % N) / N) ** 2
    return np.stack([p_plus, 1 - p_plus], axis=1) / N


def _check_joint_law(name, make, samples, cases, law):
    """Empirical joint (label, +/- outcome) law vs the exact law(N, s):
    the closed form, or the dense simulator's."""
    worst = 0.0
    per = samples // len(cases)
    for N, s in cases:
        sample = sample_batch(make(N, s), per)
        labels, bits = sample.labels, measure_pm(sample)
        emp = np.zeros((N, 2))
        np.add.at(emp, (labels, bits), 1.0)
        emp /= per
        worst = max(worst, _tv(emp, law(N, s)))
    tol = _tv_tol(per)
    return CheckResult(name, worst < tol, worst, f"< {tol:.3g}")


def _check_cosine_freq(make, grid):
    """Reference-slope observation frequencies vs cos^2(pi (s-t) k / N)."""
    per = _PER_CASE
    worst_sigma = 0.0
    for N, k, s, t in grid:
        copies = PhaseList(np.full(per, k), np.zeros(per, dtype=bool),
                           make(N, s))
        hits = int(cosine_observe(copies, t).sum())
        p = math.cos(math.pi * (((s - t) * k) % N) / N) ** 2
        sigma = math.sqrt(max(p * (1 - p), 1e-6) / per)
        worst_sigma = max(worst_sigma, abs(hits / per - p) / sigma)
    return CheckResult("cosine observation frequencies (sigma units)",
                       worst_sigma < 4.5, worst_sigma, "< 4.5 sigma")


def _check_coin_fairness(make):
    """Extraction branch must be an unbiased coin, as the dense two-qubit
    simulation of the extraction measurement confirms at every pair; the
    sieves' column merge, combine_pairs, then draws the coins of per
    uniform label pairs in one call."""
    N, s, per = 16, 7, _PER_CASE
    worst = max(abs(extract_outcome_probs(k, l, s, N)[0] - 0.5)
                for k in range(N) for l in range(N))
    if worst > 1e-12:
        return CheckResult("extraction coin fairness", False, float(worst),
                           "exact |branch prob - 0.5| <= 1e-12")
    be = make(N, s)
    _, _, minus = combine_pairs(be, be.rng.integers(0, N, 2 * per),
                                np.zeros(2 * per, dtype=bool),
                                np.arange(2 * per).reshape(2, per))
    sigma = math.sqrt(0.25 / per)
    dev = abs(minus.mean() - 0.5) / sigma
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


def _check_survival(make):
    """Staged sieve survival ratio near 1/4 on well-filled stages."""
    n, s = 9, 217
    ratios = []
    cfg = staged_config(n)
    for _ in range(_SURVIVAL_TRIALS):
        try:
            _, st = run_staged_parity(make(1 << n, s), n)
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


def _check_parity_readout(make):
    """Residue tomography at r=2 reads s mod 2 from psi_{N/2} copies; an
    undecided read counts as a mismatch."""
    N = 32
    bad = 0
    for s in (5, 12, 21, 30):
        copies = PhaseList(np.full(25, N // 2), np.zeros(25, dtype=bool),
                           make(N, s))
        if tomography_mod_r(copies, Readout([0, 1])) != s % 2:
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
    if phase_sign not in (1, -1):
        raise ValueError("phase_sign must be +1 or -1")
    cases = [(N, s) for N, s in _LAW_CASES if N <= N_max]
    if samples // len(cases) < 1000:
        raise ValueError(f"samples must give at least 1000 draws to each of "
                         f"the {len(cases)} measurement-law cases")
    rng = np.random.default_rng(rng)
    make = _backends(rng, coin_bias, phase_sign)
    grid = [(N, k, s, t) for N, k, s, t in
            ((8, 3, 5, 2), (12, 5, 7, 3), (16, 7, 9, 4), (27, 10, 4, 11),
             (32, 13, 21, 6), (30, 11, 17, 8))
            if N <= N_max]
    report = VerifyReport()
    report.checks += [
        _check_joint_law("measurement-law total variation", make, samples,
                         cases, _closed_form_law),
        _check_joint_law("dense-simulator cross-check total variation", make,
                         samples, [(N, s) for N, s in cases if N <= 16],
                         qft_joint_law),
        _check_cosine_freq(make, grid),
        _check_coin_fairness(make),
        _check_extract_residual(rng),
        _check_survival(make),
        _check_parity_readout(make),
    ]
    return report
