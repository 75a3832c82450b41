"""Full-secret recovery loops: bit-by-bit recursion for N = 2^n, the
general-N automorphism refinement, substring solving through spliced
oracles, and the abelian hidden shift assembled coordinate by coordinate.

Every recovery is Las Vegas: a candidate is returned only after an oracle
verification query, and failed candidates trigger a bounded retry.  Each
entry point takes rng, a numpy Generator (used as is) or a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoHiddenReflectionError, SieveExhaustedError
from .greedy import Objective, greedy_sieve, run_radix_recovery
from .group import (
    DihedralElement,
    GroupCtx,
    identity,
    unit_for_odd_part,
)
from .oracle import (
    restrict_reflection,
    shift_to_dihedral,
    splice_substring,
    with_label_automorphism,
)
from .phase import PhaseBackend, cosine_observe, log_likelihood
from .staged import interval_sieve, run_general_interval, run_staged_parity

# psi_1 copies observed per round of the general-N refinement
_COPIES_PER_ROUND = 12
# slope-recovery attempts the substring solver spends on each guess
_RETRIES_PER_GUESS = 2
# random points compared by the classical shift checks
_CHECK_SAMPLES = 3
# single-coordinate copies each abelian coordinate readout reads
_COORDINATE_COPIES = 24
# attempts of the radix, general-N and abelian recoveries
_MAX_RETRIES = 6


@dataclass
class RecoveryReport:
    """What a recovery run did: the secret, its cost, and proof it was
    checked against the oracle before being returned."""

    secret: object
    queries: int
    attempts: int
    verified: bool

    def __post_init__(self):
        if self.secret is not None and not self.verified:
            raise ValueError("secrets are only reported after verification")


def verify_reflection(o, s):
    """One extra query pair: the hidden subgroup <y x^s> contains y x^s,
    so the hiding function must agree on 1 and y x^s."""
    refl = DihedralElement(1, o.ctx.reduce(s))
    return o.evaluate(identity(o.ctx)) == o.evaluate(refl)


def _las_vegas(counter, attempt, verifier, max_retries):
    """The retry loop every recovery shares: attempt(i) for
    i = 1..max_retries returns a candidate; an exhausted sieve counts as
    a failed attempt.  Returns the first candidate the verifier accepts
    with its RecoveryReport, whose queries are those counter (the oracle
    or pair) recorded meanwhile.  Raises NoHiddenReflectionError when
    every attempt failed."""
    q0 = counter.queries
    for i in range(1, max_retries + 1):
        try:
            s = attempt(i)
        except SieveExhaustedError:
            continue
        if verifier(s):
            return s, RecoveryReport(secret=s, queries=counter.queries - q0,
                                     attempts=i, verified=True)
    raise NoHiddenReflectionError(
        f"no verified answer after {max_retries} attempts")


def _reflection_verifier(o, verifier):
    if verifier is None:
        return lambda s: verify_reflection(o, s)
    return verifier


# ---------------------------------------------------------------------------
# Power-of-two and radix recursions


def _digit_recursion(o, r, n, rng, read_digit):
    """One attempt of a recursion over D_{r^n}: read s mod r with
    read_digit(backend, levels left), restrict to the index-r subgroup
    that digit names, and repeat.  Returns s."""
    cur, s, mul = o, 0, 1
    for i in range(n):
        digit, _ = read_digit(PhaseBackend(cur, rng=rng), n - i)
        s += digit * mul
        mul *= r
        if i < n - 1:
            cur = restrict_reflection(cur, digit, r)
    return s


def recover_slope_power2(o, n=None, rng=None, max_retries=8, verifier=None):
    """Recover the slope over D_{2^n}: run the staged parity sieve, fold
    the answer into the index-2 subgroup, and recurse; verified against
    the oracle, retried on failure.

    Returns (s, RecoveryReport); raises NoHiddenReflectionError when the
    retry cap is hit (e.g. the oracle hides no reflection at all)."""
    N = o.ctx.N
    if n is None:
        n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError("group order is not 2^n")
    rng = np.random.default_rng(rng)

    def attempt(i):
        return _digit_recursion(o, 2, n, rng, run_staged_parity)

    return _las_vegas(o, attempt, _reflection_verifier(o, verifier),
                      max_retries)


def recover_slope_radix(o, r, n=None, rng=None, budget=None):
    """Digit-by-digit recovery over D_{r^n} using the greedy sieve at each
    level: read s mod r, restrict to the index-r subgroup, repeat.  Each
    retry doubles the list size, up to 8 times the first.
    Returns (s, RecoveryReport)."""
    N = o.ctx.N
    if r < 2:
        raise ValueError("radix must be at least 2")
    if budget is not None and budget < 2:
        raise ValueError("budget must be at least 2")
    if n is None:
        n, power = 0, 1
        while power < N:
            n, power = n + 1, power * r
    if r ** n != N:
        raise ValueError("group order is not r^n")
    rng = np.random.default_rng(rng)

    def attempt(i):
        scale = min(1 << (i - 1), 8)
        return _digit_recursion(
            o, r, n, rng, lambda be, m: run_radix_recovery(
                be, r, m, budget=budget, scale=scale))

    return _las_vegas(o, attempt, lambda s: verify_reflection(o, s),
                      _MAX_RETRIES)


# ---------------------------------------------------------------------------
# General N


def _general_attempt(o, rng):
    """One pass of the automorphism refinement: coarse interval estimate,
    then rounds of psi_1 cosine observations through the label-multiplier
    automorphisms, scored by log-likelihood over a shrinking candidate
    window."""
    N = o.ctx.N
    backend = PhaseBackend(o, rng=rng)
    t0, _ = run_general_interval(backend)
    radius = N // 4 + 1
    cands = np.array(sorted({(t0 + d) % N
                             for d in range(-radius, radius + 1)}))
    ll = np.zeros(len(cands))
    rounds = max(1, math.ceil(math.log2(N)) + 1)
    for j in range(rounds):
        if len(cands) == 1:
            break
        u = unit_for_odd_part(N, j)
        wrapped = with_label_automorphism(o, u)
        try:
            ones, _ = interval_sieve(PhaseBackend(wrapped, rng=rng),
                                     _COPIES_PER_ROUND)
        except SieveExhaustedError:
            continue
        uinv = pow(u, -1, N)
        best = int(cands[np.argmax(ll)])
        refs = [(uinv * best) % N,
                (uinv * best + max(1, N // 4)) % N,
                (uinv * best + max(1, N // 8)) % N]
        ts = [refs[idx % len(refs)]
              for idx in range(min(len(ones), _COPIES_PER_ROUND))]
        bits = [cosine_observe(q, t) for q, t in zip(ones, ts)]
        turns = ((uinv * cands[:, None] - np.array(ts)) % N) / N
        ll = log_likelihood(turns, bits, ll)
        # halve the window (stable, best first), but never drop a
        # candidate that is still in serious contention
        order = np.argsort(-ll, kind="stable")
        cands, ll = cands[order], ll[order]
        half = (len(cands) + 1) // 2
        keep = (np.arange(len(cands)) < half) | (ll > ll[0] - 8.0)
        cands, ll = cands[keep], ll[keep]
    return int(cands[np.argmax(ll)])


def recover_slope_general(o, rng=None, max_retries=_MAX_RETRIES,
                          verifier=None):
    """Recover the slope over D_N for arbitrary N: power-of-two recursion
    when N = 2^a, otherwise interval sieve plus automorphism refinement
    on the odd part of N.  Returns (s, RecoveryReport)."""
    N = o.ctx.N
    rng = np.random.default_rng(rng)
    if N & (N - 1) == 0:
        return recover_slope_power2(o, rng=rng, max_retries=max_retries,
                                    verifier=verifier)
    return _las_vegas(o, lambda i: _general_attempt(o, rng),
                      _reflection_verifier(o, verifier), max_retries)


# ---------------------------------------------------------------------------
# Hidden substring


def _substring_guesses(N):
    """Coarse-to-fine grid: start at spacing N/2 and halve; each level
    adds the midpoints of the previous one."""
    seen = set()
    yield 0
    seen.add(0)
    spacing = N // 2
    while spacing >= 1:
        for t in range(0, N, spacing):
            if t not in seen:
                seen.add(t)
                yield t
        spacing //= 2


def _substring_check(inst, shift, rng):
    """Classical verification: f(x) = g(x + shift) at random positions.
    Tokens are injective, so one agreeing sample is already decisive; a
    few are checked for good measure."""
    if not 0 <= shift < inst.N:
        return False
    for _ in range(_CHECK_SAMPLES):
        x = int(rng.integers(0, inst.N))
        if inst.f(x) != inst.g(x + shift):
            return False
    return True


def solve_substring(inst, rng=None):
    """Find the shift of a hidden substring instance (f on N points is a
    shifted window of g on 2N): guess t on a coarse-to-fine grid, splice
    (f, g(.+t)) into an approximately-hiding reflection oracle, run the
    slope recovery on it, and verify the implied shift classically.

    Returns (s, RecoveryReport); raises NoHiddenReflectionError when
    every guess on the grid fails."""
    N = inst.N
    rng = np.random.default_rng(rng)
    q0 = inst.queries
    power2 = N & (N - 1) == 0
    for attempts, t in enumerate(_substring_guesses(N), 1):
        o = splice_substring(inst, t)
        # verify the shift this slope would imply, not the oracle
        # relation (the spliced tokens wrap past N and break it)
        ver = lambda u, t=t: _substring_check(inst, (u + t) % N, rng)
        solve = recover_slope_power2 if power2 else recover_slope_general
        try:
            u, _ = solve(o, rng=rng, max_retries=_RETRIES_PER_GUESS,
                         verifier=ver)
        except NoHiddenReflectionError:
            continue
        s = (u + t) % N
        return s, RecoveryReport(secret=s, queries=inst.queries - q0,
                                 attempts=attempts, verified=True)
    raise NoHiddenReflectionError("every substring guess failed")


# ---------------------------------------------------------------------------
# Abelian hidden shift


def abelian_budget(A):
    """Empirical per-coordinate list size for the abelian greedy sieve."""
    log3 = math.log(max(3, A.size), 3)
    return max(128, math.ceil(24 * 3.0 ** math.sqrt(2 * log3)))


def _coordinate_slope(o, A, j, rng, budget):
    """Sieve for labels supported on coordinate j alone, then read the
    j-th shift coordinate by maximum likelihood over cosine
    observations."""
    rank = A.rank
    Nj = A.orders[j]
    if Nj > 1 << 12:
        raise ValueError(
            "per-coordinate likelihood readout is limited to orders <= 4096;"
            " large coordinates are only supported in rank-1 groups")
    perm = tuple([i for i in range(rank) if i != j] + [j])
    obj = Objective("abelian",
                    orders=tuple(A.orders[i] for i in perm), perm=perm)

    def target(k):
        return k[j] != 0 and all(v == 0 for i, v in enumerate(k) if i != j)

    backend = PhaseBackend(o, rng=rng)
    targets, _ = greedy_sieve(backend, obj, target, budget,
                              max_targets=_COORDINATE_COPIES)
    refs = sorted({0, max(1, Nj // 4), max(1, Nj // 3)})
    ts = [refs[idx % len(refs)] for idx in range(len(targets))]
    bits = [cosine_observe(q, tuple(t if i == j else 0 for i in range(rank)))
            for q, t in zip(targets, ts)]
    k = np.array([q.label[j] for q in targets])
    turns = ((k * (np.arange(Nj)[:, None] - np.array(ts))) % Nj) / Nj
    return int(np.argmax(log_likelihood(turns, bits)))


def _shift_check(p, cand, rng):
    """f(a) = g(a + s) at random points; truncated coordinates are kept
    away from the wrap-around window of the candidate."""
    A = p.A
    cut = A.rank - A.free_rank
    for _ in range(_CHECK_SAMPLES):
        a = []
        for i, n in enumerate(A.orders):
            hi = n if i < cut else max(1, n - cand[i])
            a.append(int(rng.integers(0, hi)))
        a = tuple(a)
        if p.f(a) != p.g(A.add(a, cand)):
            return False
    return True


def solve_abelian_shift(p, rng=None):
    """Hidden shift on a finite (possibly truncated) abelian group: view
    the pair as a reflection oracle on the generalized dihedral group,
    sieve each coordinate down to single-coordinate labels, and read the
    shift coordinate-wise.  Returns (s, RecoveryReport)."""
    A = p.A
    rng = np.random.default_rng(rng)
    o = shift_to_dihedral(p)
    q0 = p.queries

    if isinstance(o.ctx, GroupCtx):
        # rank 1 collapses to the plain dihedral problem
        s, rep = recover_slope_general(
            o, rng=rng, verifier=lambda s: _shift_check(p, (s,), rng))
        return (s,), RecoveryReport(secret=(s,), queries=p.queries - q0,
                                    attempts=rep.attempts, verified=True)

    budget = abelian_budget(A)

    def attempt(i):
        return tuple(0 if A.orders[j] == 1
                     else _coordinate_slope(o, A, j, rng, budget)
                     for j in range(A.rank))

    return _las_vegas(p, attempt, lambda cand: _shift_check(p, cand, rng),
                      _MAX_RETRIES)
