"""Full-secret recovery loops: bit-by-bit recursion for N = 2^n, the
general-N automorphism refinement, substring solving through spliced
oracles, and the abelian hidden shift read a few prime digits a step on
the radix recursion's carried chain.

Every recovery is Las Vegas: one attempt function run by _las_vegas, which
returns a candidate only after verify_reflection's query pair on the
solver's dihedral oracle accepts it, and retries a failed one up to a
fixed cap.  Each entry point takes rng, a numpy Generator
(used as is) or a seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NoHiddenReflectionError, SieveExhaustedError
from .greedy import run_chain, run_radix_recovery
from .group import DihedralElement, identity, int_dtype, unit_for_odd_part
from .oracle import (
    restrict_reflection,
    shift_to_dihedral,
    splice_substring,
    with_label_automorphism,
)
from .phase import PhaseBackend, likelihood_readout
from .staged import (
    COARSE_COPIES,
    interval_sieve,
    run_general_interval,
    run_staged_parity,
)

# psi_1 copies a general-N refinement round asks for (it reads them all)
_COPIES_PER_ROUND = 12
# a refinement round keeps the candidates within this log-likelihood of
# the best
_PRUNE_LL = 8.0
# candidates a round's multiplier choice scores at most
_SCORED_CANDIDATES = 256
# attempts of every recovery but the substring grid sweep
_MAX_RETRIES = 6


@dataclass
class RecoveryReport:
    """What a recovery run cost: the queries its instance counted and the
    attempts it took."""

    queries: int
    attempts: int


def verify_reflection(o, s):
    """One extra query pair: the hidden subgroup <y x^s> contains y x^s,
    so the hiding function must agree on 1 and y x^s."""
    refl = DihedralElement(1, o.ctx.reduce(s))
    return o.evaluate(identity(o.ctx)) == o.evaluate(refl)


def _las_vegas(o, attempt, max_retries):
    """The retry loop every recovery shares: attempt(i) for
    i = 1..max_retries returns a candidate; an exhausted sieve counts as
    a failed attempt.  Returns the first candidate verify_reflection
    accepts on the dihedral oracle o, with its RecoveryReport, whose
    queries are those o's counter (shared with the pair or substring
    instance behind o) recorded meanwhile.  Raises
    NoHiddenReflectionError when every attempt failed."""
    q0 = o.queries
    for i in range(1, max_retries + 1):
        try:
            s = attempt(i)
        except SieveExhaustedError:
            continue
        if verify_reflection(o, s):
            return s, RecoveryReport(queries=o.queries - q0, attempts=i)
    raise NoHiddenReflectionError(
        f"no verified answer after {max_retries} attempts")


# ---------------------------------------------------------------------------
# Power-of-two and radix recursions


def _digit_recursion(o, n, rng):
    """One attempt of the power-of-two recursion over D_{2^n}: read
    s mod 2 with the staged parity sieve, restrict to the index-2
    subgroup that bit names, and repeat.  Returns s."""
    cur, s = o, 0
    for i in range(n):
        bit, _ = run_staged_parity(PhaseBackend(cur, rng=rng), n - i)
        s += bit << i
        if i < n - 1:
            cur = restrict_reflection(cur, bit, 2)
    return s


def recover_slope_power2(o, n=None, rng=None):
    """Recover the slope over D_{2^n}: run the staged parity sieve, fold
    the answer into the index-2 subgroup, and recurse; verified against
    the oracle, retried on failure.

    Returns (s, RecoveryReport); raises NoHiddenReflectionError when the
    retry cap is hit (e.g. the oracle hides no reflection at all)."""
    N = o.ctx.N
    n = N.bit_length() - 1 if n is None else operator.index(n)
    if N != 1 << n:
        raise ValueError("group order is not 2^n")
    rng = np.random.default_rng(rng)
    return _las_vegas(o, lambda i: _slope_attempt(o, rng), _MAX_RETRIES)


def recover_slope_radix(o, r, n=None, rng=None):
    """Digit-by-digit recovery over D_{r^n} by the greedy sieve on o
    itself: run_radix_recovery reads every digit from one sieve state
    carried through the levels.  An order with a prime factor past 4096
    is refused before the first query (chain_plan).  Returns
    (s, RecoveryReport)."""
    N, r = o.ctx.N, operator.index(r)
    if r < 2:
        raise ValueError("radix must be at least 2")
    if n is None:
        n, power = 0, 1
        while power < N:
            n, power = n + 1, power * r
    rng = np.random.default_rng(rng)
    return _las_vegas(o, lambda i: run_radix_recovery(
        PhaseBackend(o, rng=rng), r, n)[0], _MAX_RETRIES)


# ---------------------------------------------------------------------------
# General N


def _choose_unit(N, cands, copies):
    """The multiplier of the next general-N refinement round.  Of the
    units unit_for_odd_part(N, k), k over one period of 2 mod M (N = 2^a M,
    M odd > 1) and at most ceil(log2 N) + a of them, returns the first
    whose predicted psi_1 turns (u^-1 c mod N) / N leave the candidates c
    the fewest pairs within the band a round of copies (>= 2) cannot split.

    One cosine bit carries Fisher information 4 pi^2 about its turn at any
    reference, so copies bits put a log-likelihood gap of about
    2 pi^2 copies d^2 between turns d apart; the prune keeps what is
    within _PRUNE_LL of the best, which makes the band
    sqrt(_PRUNE_LL / (2 pi^2 copies)) turn (0.09 at 50 copies).  Scores at
    most _SCORED_CANDIDATES of the sorted candidates, a golden-ratio
    sample of them when there are more: unlike every k-th candidate, its
    gaps share no stride that a power-of-two multiplier could alias.
    Deterministic; draws nothing."""
    a = (N & -N).bit_length() - 1
    units = [1]
    while len(units) < math.ceil(math.log2(N)) + a:
        u = unit_for_odd_part(N, len(units))
        if u == 1:
            break
        units.append(u)
    if len(cands) > _SCORED_CANDIDATES:
        golden = (math.sqrt(5) - 1) / 2
        cands = cands[(np.arange(_SCORED_CANDIDATES) * golden % 1.0
                       * len(cands)).astype(np.int64)]
    cands = cands.astype(int_dtype(N * N))
    w = int(N * math.sqrt(_PRUNE_LL / (2 * math.pi ** 2 * copies)))

    def pairs(u):
        # a pair counts once: within w, or within w across the wrap at N
        turns = np.sort(pow(u, -1, N) * cands % N)
        near = (np.searchsorted(turns, turns + w, side="right")
                - np.arange(1, len(turns) + 1))
        wrap = len(turns) - np.searchsorted(turns, turns + N - w)
        return int(near.sum() + wrap.sum())

    return min(units, key=pairs)


def _general_attempt(o, M, rng):
    """One pass of the automorphism refinement, reading s mod M for M the
    odd part of N: coarse interval estimate, then rounds of psi_1 cosine
    observations through the label-multiplier automorphism _choose_unit
    picks for the live candidates (sized for COARSE_COPIES in the first
    round, then for the copies the round before held), scored by
    log-likelihood over a shrinking candidate window that keeps the
    candidates within _PRUNE_LL of the best, until they agree mod M."""
    N = o.ctx.N
    backend = PhaseBackend(o, rng=rng)
    t0, _ = run_general_interval(backend)
    radius = N // 4 + 1
    # the window's arc of Z/N, sorted; it covers Z/N at small N
    cands = np.sort((t0 - radius + np.arange(min(N, 2 * radius + 1))) % N)
    ll = np.zeros(len(cands))
    copies = COARSE_COPIES
    for _ in range(max(1, math.ceil(math.log2(N)) + 1)):
        if np.all(cands % M == cands[0] % M):
            break
        u = _choose_unit(N, cands, copies)
        wrapped = with_label_automorphism(o, u)
        ones, _ = interval_sieve(PhaseBackend(wrapped, rng=rng),
                                 _COPIES_PER_ROUND)
        copies = len(ones)
        uinv = pow(u, -1, N)
        best = uinv * int(cands[np.argmax(ll)])
        ts = [(best + d) % N for d in (0, max(1, N // 4), max(1, N // 8))]
        ll = likelihood_readout(ones, ts,
                                uinv * cands.astype(int_dtype(N * N)) % N, ll)
        keep = ll > ll.max() - _PRUNE_LL
        cands, ll = cands[keep], ll[keep]
    return int(cands[np.argmax(ll)]) % M


def _slope_attempt(o, rng):
    """One slope attempt over D_N, N = 2^a M with M odd: when M > 1 the
    automorphism refinement reads p = s mod M, and restricting to
    <x^M, y x^p> leaves a D_{2^a} hiding (s - p)/M, which the
    power-of-two recursion reads."""
    N = o.ctx.N
    a = (N & -N).bit_length() - 1
    M, p = N >> a, 0
    if M > 1:
        p = _general_attempt(o, M, rng)
        o = restrict_reflection(o, p, M)
    return p + M * _digit_recursion(o, a, rng)


def recover_slope_general(o, rng=None):
    """Recover the slope over D_N for arbitrary N by _slope_attempt,
    verified against the oracle.  Returns (s, RecoveryReport).  An N past
    int64 (int_dtype) that is not a power of two is refused before the
    first query: its candidate window of about N/2 entries cannot be an
    array."""
    N = o.ctx.N
    if N & (N - 1) and int_dtype(N) is object:
        raise ValueError(f"general N = {N} has an odd factor and is past"
                         " 2^62: its candidate window cannot be held")
    rng = np.random.default_rng(rng)
    return _las_vegas(o, lambda i: _slope_attempt(o, rng), _MAX_RETRIES)


# ---------------------------------------------------------------------------
# Hidden substring


def _substring_guesses(N):
    """Coarse-to-fine grid: the points at spacing N, N // 2, N // 4, ...,
    1, each where it first appears."""
    return list(dict.fromkeys(t for j in range(N.bit_length())
                              for t in range(0, N, N >> j)))


def solve_substring(inst, rng=None):
    """Find the shift of a hidden substring instance (f on N points is a
    shifted window of g on 2N): guess t on a coarse-to-fine grid, splice
    (f, g(.+t)) into an approximately-hiding reflection oracle, run one
    slope-recovery attempt on it, and verify the implied shift on the
    splice at guess 0, h(x^b) = f(b), h(y x^c) = g(c), where neither
    h(1) = f(0) nor h(y x^s) = g(s) wraps.  The grid is swept once, one
    attempt per guess, so a far guess is tried only after every nearer
    one has had its own.

    Returns (s, RecoveryReport) whose attempts count the guesses tried;
    raises NoHiddenReflectionError when every guess fails."""
    N = inst.N
    rng = np.random.default_rng(rng)
    grid = _substring_guesses(N)

    def attempt(i):
        t = grid[i - 1]
        return (_slope_attempt(splice_substring(inst, t), rng) + t) % N

    return _las_vegas(splice_substring(inst, 0), attempt, len(grid))


# ---------------------------------------------------------------------------
# Abelian hidden shift


def solve_abelian_shift(p, rng=None):
    """Hidden shift on a finite (possibly truncated) abelian group, as a
    reflection oracle on the generalized dihedral group: run_chain reads
    the shift a chain step at a time, in the steps of the group's
    chain_plan, which refuses a group of rank 2 or more before the first
    query when an order has a prime factor past 4096.  Returns
    (s, RecoveryReport)."""
    o = shift_to_dihedral(p)
    if p.A.rank == 1:
        # rank 1 collapses to the plain dihedral problem
        s, rep = recover_slope_general(o, rng)
        return (s,), rep
    rng = np.random.default_rng(rng)
    return _las_vegas(o, lambda i: tuple(run_chain(
        PhaseBackend(o, rng=rng))[0]), _MAX_RETRIES)
