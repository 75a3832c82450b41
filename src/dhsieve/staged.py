"""Staged sieves: the power-of-two parity sieve and the general-N
interval sieve, which samples until it holds the psi_1 copies its
caller reads.
"""

from __future__ import annotations

import gc
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import InsufficientCopiesError, SieveExhaustedError
from .phase import (
    PhaseList,
    combine,
    cosine_observe,
    measure_pm,
    negate_label,
    sample_batch,
)

# list-size constant: each interval-sieve pass samples C_0 * 4^m qubits
C_0 = 3
# parity-sieve layouts (stage width m, labels per first-stage bucket) for
# n = 2, 3, ...; a pass samples that many times 2^m labels.  Each is its
# n's fewest queries per held copy (pass size over the chance that a pass
# ends holding psi_{2^(n-1)}), with at least 4 labels per bucket; every
# one holds the copy in at least 0.599 of its passes, so MAX_PASSES of
# them give up below 5e-7 of the time.  Yields were measured on the sieve
# to n = 40 and on a model of its list sizes to n = 60; CHANGES.md has
# the table.
_PARITY_LAYOUTS = (
    (2, 4), (2, 4), (3, 4), (3, 4), (3, 4), (4, 4), (4, 4),  # n = 2..8
    (4, 5), (5, 4), (5, 4), (6, 4), (6, 4), (6, 4), (6, 5),  # n = 9..15
    (6, 6), (7, 4), (7, 4), (7, 5), (7, 6), (8, 4), (8, 4),  # n = 16..22
    (8, 5), (8, 6), (8, 7), (9, 4), (9, 5), (9, 6), (10, 4),  # n = 23..29
    (10, 4), (10, 4), (9, 10), (9, 12), (9, 14), (10, 8), (10, 10),  # n = 30..36
    (10, 10), (10, 12), (10, 14), (11, 8), (11, 8), (11, 10), (11, 12),  # n = 37..43
    (12, 7), (12, 8), (12, 8), (12, 10), (12, 12), (13, 7), (11, 28),  # n = 44..50
    (11, 32), (11, 32), (11, 40), (12, 24), (12, 24), (12, 28), (12, 32),  # n = 51..57
    (12, 32), (13, 20), (13, 24),  # n = 58..60
)
# passes run_passes makes before it gives up on a demand
MAX_PASSES = 16
# psi_1 copies the coarse quadrature readout averages over
COARSE_COPIES = 24


@dataclass
class StagedConfig:
    """A parity-sieve layout: stage width m and the labels each pass
    samples."""

    m: int
    pass_size: int


@dataclass
class SieveStats:
    """Per-run accounting: stage-by-stage list sizes, and the greedy
    sieve's combines and pairing work.  work counts the entries of every
    sorted bucket sweep plus the pairs merged.  Queries are counted by
    the oracle, not here."""

    list_sizes: list = field(default_factory=list)
    combines: int = 0
    work: int = 0

    def __add__(self, other):
        """Two passes' stats, list sizes summed stage by stage."""
        return SieveStats(
            [a + b for a, b in zip_longest(self.list_sizes, other.list_sizes,
                                           fillvalue=0)],
            self.combines + other.combines, self.work + other.work)

    @property
    def survival_ratios(self):
        """Each stage's list size over the size of the stage before."""
        return [b / a if a else 0.0
                for a, b in zip(self.list_sizes, self.list_sizes[1:])]


def staged_config(n):
    """Layout of the power-of-two sieve on N = 2^n, from _PARITY_LAYOUTS.
    Past its last n, n takes the layout of n - 5 with stages one bit
    wider: the same labels per bucket at every stage of a pass twice as
    large, and a final window one bit wider."""
    if n < 2:
        raise ValueError("staged sieve needs n >= 2")
    past = n - 1 - len(_PARITY_LAYOUTS)
    wider = max(0, -(-past // 5))
    m, per_bucket = _PARITY_LAYOUTS[n - 5 * wider - 2]
    m += wider
    return StagedConfig(m=m, pass_size=per_bucket << m)


def stage_windows(n, m):
    """Bit windows matched at each stage: a window every m bits below
    n - 1, stage j matching bits [m*j, min(m*(j+1), n-1)), so that
    surviving labels lie in {0, 2^(n-1)}."""
    return [(lo, min(lo + m, n - 1)) for lo in range(0, n - 1, m)]


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


def _parity_pass(backend, size, windows, top):
    """One pass of the parity sieve over a fresh sample of size labels:
    each stage matches one bit window and keeps the differences, and a
    list that empties ends the pass.  Returns the first psi_top of the
    final list (as a PhaseList of one, None when it holds none) and the
    pass's list sizes."""
    current = sample_batch(backend, size).qubits()
    sizes = [len(current)]
    for window in windows:
        pairs, _leftovers = match_by_suffix(current, window)
        current = list(_differences(pairs, backend))
        sizes.append(len(current))
        if not current:
            break
    held = [q for q in current if q.label == top][:1]
    return (PhaseList.pack(held, backend) if held else None,
            SieveStats(sizes))


def run_staged_parity(backend, n):
    """Power-of-two staged sieve: returns s mod 2, an int, for the slope
    hidden by the backend's oracle over D_{2^n}.  Passes of
    staged_config(n).pass_size fresh labels (run_passes; D_2: one label
    and no stage) run until one ends holding psi_{2^(n-1)}, and that copy
    is measured.  Raises SieveExhaustedError after MAX_PASSES passes; the
    caller retries with a fresh run.  The cyclic collector is paused for
    the call (its qubits trigger full collections that free nothing),
    then restored to the caller's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        N = backend.oracle.ctx.N
        if N != 1 << n:
            raise ValueError("oracle group order is not 2^n")

        if n == 1:
            size, windows = 1, []
        else:
            cfg = staged_config(n)
            size, windows = cfg.pass_size, stage_windows(n, cfg.m)
        held, stats = run_passes(
            lambda: _parity_pass(backend, size, windows, 1 << (n - 1)))
        return int(measure_pm(held)[0]), stats
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
    keeps the differences below it.  psi_1 copies are appended to ones as
    they appear and psi_0 is dropped; neither is paired again.  Returns
    the pass's stats, the nonzero-label count after sampling and after
    each stage.

    Sorted-neighbour pairing is the design, not the paper's pairing of a
    bucket in sample order: neighbours leave the smallest differences,
    and over 200 seeded passes the median psi_1 yield was 21 against 7
    at N = 360 and 53 against 6 at N = 4095."""
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
                    for q in sample_batch(backend, size).qubits())
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
    return SieveStats(sizes)


def run_passes(one_pass):
    """The demand loop of every staged and interval sieve: call
    one_pass() -> (result, SieveStats), each pass over fresh samples,
    until a pass returns a result other than None, and return it with the
    stats summed; after MAX_PASSES passes without one, raises
    SieveExhaustedError carrying the summed stats."""
    stats = SieveStats()
    for _ in range(MAX_PASSES):
        got, st = one_pass()
        stats += st
        if got is not None:
            return got, stats
    raise SieveExhaustedError(
        f"demand unmet after {MAX_PASSES} passes", stats)


def interval_sieve(backend, want):
    """General-N interval sieve: passes over fresh samples (run_passes),
    each adding its psi_1 copies to one list, until the list holds at
    least want copies; returns them as one PhaseList, in order."""
    if want < 1:
        raise ValueError("want must be >= 1")
    _, size, widths = interval_config(backend.oracle.ctx.N)
    ones = []

    def one_pass():
        stats = _interval_pass(backend, size, widths, ones)
        held = PhaseList.pack(ones, backend) if len(ones) >= want else None
        return held, stats

    return run_passes(one_pass)


def estimate_from_quadratures(ones):
    """Ettinger-Hoyer style readout: observe the first half of a PhaseList
    of psi_1 copies on D_N against reference slope 0 and the rest against
    floor(N/4), in one call, estimate cos and sin of 2 pi s / N, and read
    the angle."""
    count = len(ones)
    if not count:
        raise InsufficientCopiesError("no copies supplied")
    N = ones.backend.oracle.ctx.N
    tq = max(1, N // 4)
    half = count // 2 or 1
    bits = cosine_observe(ones, [0] * half + [tq] * (count - half)).tolist()
    cos_phi = 2 * (sum(bits[:half]) / half) - 1
    sin_phi = 0.0
    if count > half:
        gamma = 2 * math.pi * tq / N
        fq = sum(bits[half:]) / (count - half)
        sin_phi = (2 * fq - 1 - cos_phi * math.cos(gamma)) / math.sin(gamma)
    phi = math.atan2(sin_phi, cos_phi)
    return round(phi / (2 * math.pi) * N) % N


def run_general_interval(backend):
    """Interval sieve plus quadrature readout: estimates the hidden slope
    to within N/4 (circular) with probability at least 2/3."""
    ones, stats = interval_sieve(backend, COARSE_COPIES)
    return estimate_from_quadratures(ones), stats
