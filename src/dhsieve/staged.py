"""Staged sieves: the power-of-two parity sieve and the general-N
interval sieve, which samples until it holds the psi_1 copies its
caller reads.
"""

from __future__ import annotations

import gc
import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import SieveExhaustedError
from .phase import (
    combine,
    cosine_observe,
    measure_pm,
    negate_label,
    sample_batch,
)

# list-size constant: the parity sieve samples C_0 * 8^m qubits and each
# interval-sieve pass C_0 * 4^m
C_0 = 3
# passes the interval sieve runs before it gives up on too few copies
_MAX_PASSES = 16
# psi_1 copies the coarse quadrature readout averages over
_COARSE_COPIES = 24


@dataclass
class StagedConfig:
    """Stage count parameter m and the initial list size C_0 * 8^m."""

    m: int
    initial_size: int


@dataclass
class SieveStats:
    """Per-run accounting: stage-by-stage list sizes, and the greedy
    sieve's combines and pairing work.  Queries are counted by the
    oracle, not here."""

    list_sizes: list = field(default_factory=list)
    combines: int = 0
    work: int = 0

    @property
    def survival_ratios(self):
        """Each stage's list size over the size of the stage before."""
        return [b / a if a else 0.0
                for a, b in zip(self.list_sizes, self.list_sizes[1:])]


def staged_config(n):
    """Configuration for the power-of-two sieve on N = 2^n."""
    if n < 2:
        raise ValueError("staged sieve needs n >= 2")
    m = math.isqrt(n - 1)
    if m * m < n - 1:
        m += 1
    return StagedConfig(m=m, initial_size=C_0 << (3 * m))


def stage_windows(n, m):
    """Bit windows matched at each stage.  Stage j matches bits
    [m*j, m*(j+1)); the final stage matches everything up to bit n-1 so
    that surviving labels lie in {0, 2^(n-1)}."""
    windows = []
    lo = 0
    while lo < n - 1:
        hi = min(lo + m, n - 1)
        windows.append((lo, hi))
        lo = hi
    return windows


def match_by_suffix(qubits, window):
    """Maximal pairing of qubits whose labels agree on the given bit
    window; at most one leftover per bucket."""
    lo, hi = window
    mask = (1 << (hi - lo)) - 1
    buckets = defaultdict(list)
    for q in qubits:
        buckets[(q.label >> lo) & mask].append(q)
    pairs, leftovers = [], []
    for group in buckets.values():
        pairs.extend(zip(group[::2], group[1::2]))
        if len(group) % 2:
            leftovers.append(group[-1])
    return pairs, leftovers


def _differences(pairs, backend):
    """Combine each pair (k, l) and yield the results in difference form,
    label k - l.  The stage's extraction coins are drawn in one call,
    which gives the same doubles as one draw per combine."""
    N = backend.oracle.ctx.N
    coins = backend.rng.random(len(pairs)).tolist()
    for (k_q, l_q), u in zip(pairs, coins):
        l = l_q.label
        out = combine(k_q, l_q, u)
        # 2l = 0 makes the branches coincide; count that as a difference.
        if out.minus_branch or (2 * l) % N == 0:
            yield out


def run_staged_parity(backend, n):
    """Power-of-two staged sieve: returns s mod 2 for the slope hidden by
    the backend's oracle over D_{2^n}.  Raises SieveExhaustedError when no
    psi_{2^(n-1)} survives; the caller retries with a fresh run.  The
    cyclic collector is paused for the call (its qubits trigger full
    collections that free nothing), then restored to the caller's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        N = backend.oracle.ctx.N
        if N != 1 << n:
            raise ValueError("oracle group order is not 2^n")

        if n == 1:
            # Degenerate group D_2: sample until the label-1 state appears.
            for _ in range(64):
                q = sample_batch(backend, 1)[0]
                if q.label == 1:
                    return measure_pm(q), SieveStats()
            raise SieveExhaustedError("no psi_1 sampled in D_2")

        cfg = staged_config(n)
        current = sample_batch(backend, cfg.initial_size)
        stats = SieveStats(list_sizes=[len(current)])

        for window in stage_windows(n, cfg.m):
            pairs, _leftovers = match_by_suffix(current, window)
            current = list(_differences(pairs, backend))
            stats.list_sizes.append(len(current))
            if not current:
                raise SieveExhaustedError("staged sieve list emptied early")

        top = 1 << (n - 1)
        target = next(
            (q for q in current if q.label == top and not q.consumed), None)
        if target is None:
            raise SieveExhaustedError("no psi_{2^(n-1)} in the final list")
        return measure_pm(target), stats
    finally:
        if enabled:
            gc.enable()


def _normalize_halfrange(q, N):
    """Apply the psi_k ~ psi_{-k} equivalence so 0 <= label <= N/2."""
    if q.label * 2 > N:
        return negate_label(q)
    return q


def interval_config(N):
    """Stage count m = ceil(sqrt(log2 N - 2)), the per-pass sample size
    C_0 * 4^m, and the m stage widths.  With b the bit length of N // 2,
    stage j keeps normalized labels below 2^max(1, b - ceil((b-1)(j+1)/m)),
    so the stages shrink [0, N/2] in even steps down to {0, 1}."""
    if N < 2:
        raise ValueError("N must be >= 2")
    x = math.log2(N) - 2
    m = max(1, math.ceil(math.sqrt(x)) if x > 0 else 1)
    b = (N // 2).bit_length()
    widths = [1 << max(1, b - ((b - 1) * (j + 1) + m - 1) // m)
              for j in range(m)]
    return m, C_0 << (2 * m), widths


def _interval_pass(backend, size, widths, ones):
    """One pass of the interval sieve over a fresh sample of size labels:
    each stage pairs sorted neighbours within a bucket of its width and
    keeps the differences below it.  psi_1 copies are moved to ones as
    they appear and psi_0 is dropped; neither is paired again.  Returns
    the nonzero-label count after sampling and after each stage."""
    N = backend.oracle.ctx.N
    sizes = []

    def route(qs):
        pool, before = [], len(ones)
        for q in qs:
            if q.label == 1:
                ones.append(q)
            elif q.label != 0:
                pool.append(q)
        sizes.append(len(pool) + len(ones) - before)
        return pool

    current = route(_normalize_halfrange(q, N)
                    for q in sample_batch(backend, size))
    for width in widths:
        buckets = defaultdict(list)
        for q in current:
            buckets[q.label // width].append(q)
        pairs = []
        for group in buckets.values():
            group.sort(key=lambda q: q.label)
            pairs.extend(zip(group[::2], group[1::2]))
        outs = (_normalize_halfrange(q, N)
                for q in _differences(pairs, backend))
        current = route(q for q in outs if q.label < width)
    return sizes


def interval_sieve(backend, want):
    """General-N interval sieve: runs passes over fresh samples until it
    holds at least want psi_1 copies, and returns them with one SieveStats
    whose list sizes are summed stage by stage over the passes.  Raises
    SieveExhaustedError after _MAX_PASSES passes with fewer copies."""
    if want < 1:
        raise ValueError("want must be >= 1")
    m, size, widths = interval_config(backend.oracle.ctx.N)
    ones, totals, passes = [], [0] * (m + 1), 0
    while len(ones) < want:
        if passes == _MAX_PASSES:
            raise SieveExhaustedError(
                f"{len(ones)} of {want} psi_1 copies after {passes} passes")
        passes += 1
        totals = [t + k for t, k in
                  zip(totals, _interval_pass(backend, size, widths, ones))]
    return ones, SieveStats(list_sizes=totals)


def estimate_from_quadratures(ones, N):
    """Ettinger-Hoyer style readout: split psi_1 copies between reference
    slopes 0 and floor(N/4), estimate cos and sin of 2 pi s / N, and read
    the angle."""
    tq = max(1, N // 4)
    half = len(ones) // 2
    if half == 0:
        half = len(ones)
    cos_obs = [cosine_observe(q, 0) for q in ones[:half]]
    sin_obs = [cosine_observe(q, tq) for q in ones[half:]]
    f0 = sum(cos_obs) / len(cos_obs)
    cos_phi = 2 * f0 - 1
    if sin_obs:
        gamma = 2 * math.pi * tq / N
        fq = sum(sin_obs) / len(sin_obs)
        sin_phi = (2 * fq - 1 - cos_phi * math.cos(gamma)) / math.sin(gamma)
    else:
        sin_phi = 0.0
    phi = math.atan2(sin_phi, cos_phi)
    return round(phi / (2 * math.pi) * N) % N


def run_general_interval(backend):
    """Interval sieve plus quadrature readout: estimates the hidden slope
    to within N/4 (circular) with probability at least 2/3."""
    ones, stats = interval_sieve(backend, _COARSE_COPIES)
    return estimate_from_quadratures(ones, backend.oracle.ctx.N), stats
