"""Greedy radix sieve: bucket qubits by an objective function, pair the
best-matching entries of the minimum bucket, and race labels toward a
target divisibility.  Also hosts the abelian-coordinate objective and the
label-only cancellation race used by the experiment harness.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import itemgetter

import numpy as np

from .errors import SieveExhaustedError
from .phase import negate_label, combine, sample_batch, tomography_copies_needed, tomography_mod_r
from .staged import SieveStats, run_passes


def alpha_radix(k, r):
    """Number of factors of r in k, except alpha(0) = 0."""
    if k == 0:
        return 0
    if r == 2:
        return (k & -k).bit_length() - 1
    a = 0
    while k % r == 0:
        k //= r
        a += 1
    return a


def alpha_abelian(k, orders):
    """Cancellation score on a product of cyclic groups: credit for each
    zeroed leading coordinate, discounted by the magnitude of the first
    nonzero one; first-nonzero-in-the-last-slot (or zero) scores full."""
    a = len(orders)
    b = next((j for j, v in enumerate(k) if v != 0), a - 1)
    coord_bits = [math.ceil(1 + math.log2(n + 1)) for n in orders]
    if b == a - 1:
        return sum(coord_bits)
    return sum(coord_bits[: b + 1]) - math.ceil(math.log2(k[b] + 1))


class RadixObjective:
    """Objective on Z/r^n: alpha is the r-adic valuation, and the key is
    the digit string beyond the cancelled digits, least significant
    first, so lexicographic order puts the best partners adjacent."""

    def __init__(self, r):
        self.r = r

    def needs_flip(self, label):
        """psi_k ~ psi_{-k}: orient so the first nonzero digit is small."""
        if self.r == 2:
            return False
        v = alpha_radix(label, self.r)
        return (label // self.r ** v) % self.r * 2 > self.r

    def rank(self, label):
        """(alpha, key) of a nonzero label."""
        v = alpha_radix(label, self.r)
        k = label // self.r ** v
        digits = []
        while k:
            digits.append(k % self.r)
            k //= self.r
        return v, tuple(digits)


class CoordinateObjective:
    """Per-coordinate abelian objective on a product of cyclic groups of
    the given orders.  A label is read in the coordinate order perm, so
    the sieve zeroes any chosen set of leading coordinates; the key is
    the view from its first nonzero coordinate on."""

    def __init__(self, orders, perm):
        self.perm = perm
        self.orders = tuple(orders[i] for i in perm)

    def _view(self, label):
        return tuple(label[i] for i in self.perm)

    def needs_flip(self, label):
        """psi_k ~ psi_{-k}: orient so the first nonzero coordinate is
        small."""
        label = self._view(label)
        b = next((j for j, v in enumerate(label) if v != 0), None)
        return b is not None and label[b] * 2 > self.orders[b]

    def rank(self, label):
        """(alpha, key) of a nonzero label."""
        label = self._view(label)
        b = next((j for j, v in enumerate(label) if v != 0), len(label) - 1)
        return alpha_abelian(label, self.orders), label[b:]


def _match_len(k1, k2):
    m = 0
    for a, b in zip(k1, k2):
        if a != b:
            break
        m += 1
    return m


def _pair_order(depths):
    """Pairing order of a sorted sweep whose adjacent entries i, i + 1
    share depths[i] leading key digits: (left, right) index arrays, the
    deepest match first and ties by left position, until at most one
    entry is left.  Keys are sorted, so two entries match to the minimum
    depth over the gap between them; once every deeper run has left at
    most one entry, the entries that match at depth d pair off left to
    right, and no merge makes a new match at depth d."""
    gap = np.asarray(depths, dtype=np.int64)
    idx = np.arange(len(gap) + 1)
    lefts, rights = [idx[:0]], [idx[:0]]
    while len(idx) >= 2:
        # the gaps at the deepest depth, and where each run of them starts
        at = np.flatnonzero(gap == gap.max())
        first = np.ones(len(at), dtype=bool)
        first[1:] = at[1:] != at[:-1] + 1
        start = np.maximum.accumulate(np.where(first, at, 0))
        left = at[(at - start) % 2 == 0]
        lefts.append(idx[left])
        rights.append(idx[left + 1])
        keep = np.ones(len(idx), dtype=bool)
        keep[left] = keep[left + 1] = False
        kept = np.flatnonzero(keep)
        if len(kept) >= 2:
            gap = np.minimum.reduceat(gap[:kept[-1]], kept[:-1])
        idx = idx[kept]
    return np.concatenate(lefts), np.concatenate(rights)


def greedy_sieve(backend, obj, target, budget, max_targets=None):
    """Fill a list with budget sampled qubits, then greedily pair inside
    the minimum-alpha bucket to maximize the alpha of the extracted label.
    Collects qubits whose (canonicalized) labels satisfy target, and
    stops as soon as it holds max_targets of them.

    Each qubit is ranked once, when it is placed.  The minimum-alpha
    bucket is stable-sorted by key and swept in _pair_order; each merge
    is placed as soon as it is made, so the stop can land mid-sweep, and
    merges that stay at the same alpha carry into the next sweep with
    the unpaired entry.

    Raises SieveExhaustedError when the buckets empty with no target."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    stats = SieveStats()
    targets, buckets = [], defaultdict(list)
    zero = backend.oracle.ctx.zero

    def place(q):
        """Drop label 0, collect a target, bucket anything else by alpha
        under its key; True once max_targets are held."""
        if q.label == zero:
            return False
        if obj.needs_flip(q.label):
            q = negate_label(q)
        if target(q.label):
            targets.append(q)
            return max_targets is not None and len(targets) >= max_targets
        alpha, key = obj.rank(q.label)
        buckets[alpha].append((key, q))
        return False

    for q in sample_batch(backend, budget):
        if place(q):
            return targets, stats
    while buckets:
        v = min(buckets)
        group = buckets.pop(v)
        while len(group) >= 2:
            group.sort(key=itemgetter(0))
            stats.work += len(group)
            left, right = _pair_order([_match_len(a[0], b[0])
                                       for a, b in zip(group, group[1:])])
            for i, j in zip(left.tolist(), right.tolist()):
                stats.combines += 1
                stats.work += 1
                if place(combine(group[i][1], group[j][1])):
                    return targets, stats
            lone = np.ones(len(group), dtype=bool)
            lone[left] = lone[right] = False
            group = (buckets.pop(v, [])
                     + [group[i] for i in np.flatnonzero(lone)])
    if not targets:
        raise SieveExhaustedError("greedy sieve exhausted with no target")
    return targets, stats


def default_radix_budget(r, n):
    """Empirical list size: a constant times the 3^sqrt(2 log_3 N) law."""
    log3_N = n * math.log(r, 3)
    return max(16, math.ceil(24 * 3.0 ** math.sqrt(2 * log3_N)))


def run_radix_recovery(backend, r, n, budget=None, scale=1):
    """One level of the radix recursion: sieve for labels divisible by
    N/r, then read s mod r by tomography.  Greedy sieves of budget * scale
    qubits run (run_passes) until the level holds the copies tomography
    needs; a sieve that finds no target ends the level.  scale multiplies
    the list size; callers raise it when retrying after exhaustion."""
    N = r ** n
    if backend.oracle.ctx.N != N:
        raise ValueError("oracle group order is not r^n")
    if n == 0:
        return 0, SieveStats()
    if budget is None:
        budget = default_radix_budget(r, n)
    budget *= scale
    obj = RadixObjective(r)
    step = N // r
    want = max(5, tomography_copies_needed(r))
    targets, stats = run_passes(
        lambda held: greedy_sieve(backend, obj, lambda k: k % step == 0,
                                  budget, max_targets=4 * want - held),
        tomography_copies_needed(r))
    return tomography_mod_r(targets, r), stats


# each byte with its bits reversed, and its count of leading zero bits
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                 dtype=np.uint8)
_CLZ8 = np.array([8 - b.bit_length() for b in range(256)], dtype=np.int64)


def race_key(odd, nbytes):
    """Key matrix of a race bucket: row i holds the binary digits of
    odd[i], least significant first, zero-padded to nbytes bytes.  Rows
    compare bytewise like the digit strings do (a string sorts before its
    extensions), and adjacent rows share the longest low-bit suffixes."""
    raw = b"".join(k.to_bytes(nbytes, "little") for k in odd)
    return _REV8[np.frombuffer(raw, dtype=np.uint8).reshape(len(odd), nbytes)]


def _race_bucket(odd, nbytes):
    """Sort one race bucket of odd parts by race_key (stable), and return
    the sorted order with the match depth of each adjacent pair: the
    common leading key bits, capped at the shorter digit string."""
    keys = race_key(odd, nbytes)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    diff = keys[1:] ^ keys[:-1]
    first = (diff != 0).argmax(axis=1)
    depth = 8 * first + _CLZ8[diff[np.arange(len(diff)), first]]
    depth[~diff.any(axis=1)] = 8 * nbytes
    bits = np.array([k.bit_length() for k in odd])[order]
    return order, np.minimum(depth, np.minimum(bits[1:], bits[:-1]))


def cancellation_race(labels, rng):
    """Label-only simulation of the greedy sieve: run the binary pairing
    race on plain integer labels and report the maximum alpha value
    reached before the lists exhaust.  This is the Table-1 experiment.

    Each bucket is swept once, in ascending alpha v: two labels of alpha
    v merge to a label of larger alpha (or zero, which leaves the race),
    so the buckets above v only grow while v is swept.  A bucket is
    keyed by the odd parts k >> v, which never outgrow the widest input
    label, and paired in _pair_order; one rng.random(npairs) call draws
    the coins, the stream one call per merge would draw.

    The race is binary: for r > 2 it would have to reorient labels by
    k ~ -k modulo r^n, which labels kept in Z cannot express."""
    stats = SieveStats()
    nbytes = max(1, (max(labels, default=0).bit_length() + 7) // 8)
    buckets = defaultdict(list)
    for k in labels:
        if k:
            buckets[alpha_radix(k, 2)].append(k)
    best = 0
    while buckets:
        v = min(buckets)
        group = buckets.pop(v)
        best = max(best, v)
        if len(group) < 2:
            continue
        order, depth = _race_bucket([k >> v for k in group], nbytes)
        left, right = _pair_order(depth)
        coins = rng.random(len(left))
        stats.work += len(group) + len(left)
        stats.combines += len(left)
        for i, j, c in zip(order[left].tolist(), order[right].tolist(),
                           coins.tolist()):
            k, l = group[i], group[j]
            m = k + l if c < 0.5 else abs(k - l)
            if m:
                buckets[alpha_radix(m, 2)].append(m)
    return best, stats
