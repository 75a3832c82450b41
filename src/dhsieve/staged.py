"""Staged sieves: the power-of-two parity sieve and the general-N
interval sieve, with the list-size schedule from the survival analysis.
"""

from __future__ import annotations

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


@dataclass
class StagedConfig:
    """Stage count parameter m and the list-size constants C_k."""

    n: int
    m: int
    C: list
    initial_size: int


@dataclass
class SieveStats:
    """Per-run accounting: queries, stage-by-stage list sizes and
    survival ratios, and the greedy sieve's combines and pairing work."""

    queries_used: int = 0
    list_sizes: list = field(default_factory=list)
    survival_ratios: list = field(default_factory=list)
    combines: int = 0
    work: int = 0

    def record_stage(self, size):
        """Append a stage's list size and its ratio to the stage before."""
        prev = self.list_sizes[-1]
        self.list_sizes.append(size)
        self.survival_ratios.append(size / prev if prev else 0.0)


def list_size_constants(m, depth=None):
    """C_0 = 3 and C_k = C_{k-1} / (1 - 2^(-k - m/3)) + 2^(-2k);
    increasing and bounded by 9."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if depth is None:
        depth = max(m, 64)
    C = [3.0]
    for k in range(1, depth + 1):
        C.append(C[-1] / (1.0 - 2.0 ** (-k - m / 3.0)) + 2.0 ** (-2 * k))
    return C


def list_size_schedule(m):
    """(C constants, initial list size C_0 * 2^(3m))."""
    C = list_size_constants(m)
    return C, int(C[0] * (1 << (3 * m)))


def staged_config(n):
    """Configuration for the power-of-two sieve on N = 2^n."""
    if n < 2:
        raise ValueError("staged sieve needs n >= 2")
    m = math.isqrt(n - 1)
    if m * m < n - 1:
        m += 1
    C, size = list_size_schedule(m)
    return StagedConfig(n=n, m=m, C=C, initial_size=size)


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
    psi_{2^(n-1)} survives; the caller retries with a fresh run."""
    stats = SieveStats()
    N = backend.oracle.ctx.N
    if N != 1 << n:
        raise ValueError("oracle group order is not 2^n")

    if n == 1:
        # Degenerate group D_2: sample until the label-1 state appears.
        for _ in range(64):
            q = sample_batch(backend, 1)[0]
            stats.queries_used += 1
            if q.label == 1:
                return measure_pm(q), stats
        raise SieveExhaustedError("no psi_1 sampled in D_2")

    cfg = staged_config(n)
    current = sample_batch(backend, cfg.initial_size)
    stats.queries_used += cfg.initial_size
    stats.list_sizes.append(len(current))

    for window in stage_windows(n, cfg.m):
        pairs, _leftovers = match_by_suffix(current, window)
        current = list(_differences(pairs, backend))
        stats.record_stage(len(current))
        if not current:
            raise SieveExhaustedError("staged sieve list emptied early")

    top = 1 << (n - 1)
    target = next((q for q in current if q.label == top and not q.consumed),
                  None)
    if target is None:
        raise SieveExhaustedError("no psi_{2^(n-1)} in the final list")
    return measure_pm(target), stats


def _normalize_halfrange(q, N):
    """Apply the psi_k ~ psi_{-k} equivalence so 0 <= label <= N/2."""
    if q.label * 2 > N:
        return negate_label(q)
    return q


def interval_config(N):
    """m = ceil(sqrt(log2 N - 2)) and the reused list-size schedule."""
    if N < 2:
        raise ValueError("N must be >= 2")
    x = math.log2(N) - 2
    m = max(1, math.ceil(math.sqrt(x)) if x > 0 else 1)
    C, size = list_size_schedule(m)
    return m, size


def interval_sieve(backend):
    """General-N interval sieve: drives normalized labels down to {0, 1}
    and returns the surviving psi_1 copies."""
    stats = SieveStats()
    N = backend.oracle.ctx.N
    m, size = interval_config(N)
    ones = []

    def route(q, pool):
        # psi_0 carries no information and psi_1 is already the goal;
        # neither should be fed back into the pairing.
        if q.label == 1:
            ones.append(q)
        elif q.label != 0:
            pool.append(q)

    current = []
    for q in sample_batch(backend, size):
        route(_normalize_halfrange(q, N), current)
    stats.queries_used += size
    stats.list_sizes.append(len(current))

    for j in range(m):
        width = 1 << max(0, m * m - m * (j + 1) + 1)
        buckets = defaultdict(list)
        for q in current:
            buckets[q.label // width].append(q)
        pairs = []
        for group in buckets.values():
            group.sort(key=lambda q: q.label)
            pairs.extend(zip(group[::2], group[1::2]))
        survivors = []
        for out in _differences(pairs, backend):
            out = _normalize_halfrange(out, N)
            if out.label < width:
                route(out, survivors)
        stats.record_stage(len(survivors))
        current = survivors
        if not current:
            break

    if not ones:
        raise SieveExhaustedError("no psi_1 in the final list")
    return ones, stats


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
    ones, stats = interval_sieve(backend)
    return estimate_from_quadratures(ones, backend.oracle.ctx.N), stats
