"""Greedy radix sieve: bucket sampled labels by an objective, pair the
best-matching entries of the minimum bucket, and race labels toward a
target alpha, on label arrays.  Also hosts the abelian-coordinate
objective and the label-only cancellation race used by the experiment
harness.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .errors import SieveExhaustedError
from .phase import (
    PhaseList,
    combine,  # noqa: F401  (bound here for perfbench's tracer)
    sample_batch,
    tomography_copies_needed,
    tomography_mod_r,
)
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


def _leading_zeros(rows):
    """How many leading entries of each row of a matrix are zero, which
    is the index of its first nonzero entry."""
    return np.logical_and.accumulate(rows == 0, axis=1).sum(axis=1)


class RadixObjective:
    """Objective on Z/r^n: alpha is the r-adic valuation, and the key is
    the digit string beyond the cancelled digits, least significant
    first, so lexicographic order puts the best partners adjacent.  The
    methods take an array of nonzero labels, int64 or object."""

    def __init__(self, r):
        self.r = r

    def _digits(self, q):
        """Digit matrix of the positive integers q, least significant
        first and as wide as the largest, with the powers r^j of its
        columns."""
        top, w = int(q.max(initial=0)), 1
        while self.r ** w <= top:
            w += 1
        pows = np.array([self.r ** j for j in range(w)], dtype=q.dtype)
        digits = q[:, None] // pows
        digits %= self.r
        return digits, pows

    def score(self, labels):
        """(flip, alpha): alpha is the valuation, which negation keeps,
        and psi_k ~ psi_{-k}, so flip marks the labels whose first
        nonzero digit is large."""
        digits, _ = self._digits(labels)
        v = _leading_zeros(digits)
        return digits[np.arange(len(v)), v] * 2 > self.r, v

    def keys(self, labels, alpha):
        """Key matrix of labels of one alpha: row i holds the digits of
        labels[i] // r^alpha, least significant first, padded with -1."""
        q = labels // self.r ** alpha
        keys, pows = self._digits(q)
        keys[q[:, None] < pows] = -1
        return keys.astype(np.int64, copy=False)


class CoordinateObjective:
    """Per-coordinate abelian objective on a product of cyclic groups of
    the given orders.  A label is read in the coordinate order perm, so
    the sieve zeroes any chosen set of leading coordinates; the key is
    the view from its first nonzero coordinate b on.  alpha credits each
    zeroed leading coordinate and is discounted by the magnitude of the
    coordinate at b; a label whose first nonzero coordinate is the last
    scores full_score.  The methods take a (count, rank) matrix of
    nonzero labels in the original coordinate order."""

    def __init__(self, orders, perm):
        self.perm = list(perm)
        orders = [orders[i] for i in perm]
        bits = [math.ceil(1 + math.log2(n + 1)) for n in orders]
        self.orders = np.array(orders)
        self.full_score = sum(bits)
        self._credit = np.cumsum(bits)

    def _lead(self, labels):
        """The labels in view order, each row's first nonzero coordinate
        b, and the value there."""
        view = labels[:, self.perm]
        b = _leading_zeros(view)
        return view, b, view[np.arange(len(view)), b]

    def score(self, labels):
        """(flip, alpha): psi_k ~ psi_{-k}, so flip marks the labels whose
        first nonzero coordinate is large, and alpha is the score of the
        flipped label.  ceil(log2(x + 1)) is the bit length of x, read
        off the float exponent (exact below 2^53)."""
        _, b, lead = self._lead(labels)
        n = self.orders[b]
        flip = lead * 2 > n
        lead = np.where(flip, n - lead, lead)
        loss = np.frexp(np.asarray(lead, dtype=float))[1]
        return flip, np.where(b == len(self.perm) - 1, self.full_score,
                              self._credit[b] - loss)

    def keys(self, labels, alpha):
        """Key matrix of labels of one alpha: row i holds the view of
        labels[i] from b on, padded with -1."""
        view, b, _ = self._lead(labels)
        a = view.shape[1]
        cols = b[:, None] + np.arange(a)
        return np.where(cols < a, np.take_along_axis(
            view, np.minimum(cols, a - 1), axis=1), -1)


def _key_depths(keys):
    """Match depth of adjacent rows of a sorted key matrix: how many
    leading digits they share, up to the shorter digit string.  Padding
    with -1 makes the rows sort as the digit tuples do (a tuple sorts
    before its extensions)."""
    same = (keys[1:] == keys[:-1]) & (keys[1:] >= 0)
    return np.logical_and.accumulate(same, axis=1).sum(axis=1)


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
        at = (gap == gap.max()).nonzero()[0]
        first = np.empty(len(at), dtype=bool)
        first[0] = True
        first[1:] = at[1:] != at[:-1] + 1
        start = np.maximum.accumulate(np.where(first, at, 0))
        left = at[(at - start) % 2 == 0]
        lefts.append(idx[left])
        rights.append(idx[left + 1])
        keep = np.full(len(idx), True)
        keep[left] = keep[left + 1] = False
        kept = keep.nonzero()[0]
        if len(kept) >= 2:
            gap = np.minimum.reduceat(gap[:kept[-1]], kept[:-1])
        idx = idx[kept]
    return np.concatenate(lefts), np.concatenate(rights)


def greedy_sieve(backend, obj, min_alpha, budget, max_targets):
    """Fill a list with budget sampled qubits, then greedily pair inside
    the minimum-alpha bucket to maximize the alpha of the extracted label.
    Collects the nonzero labels (oriented as obj.score flips them) whose
    alpha is at least min_alpha as targets, and stops as soon as it holds
    max_targets of them.  Returns (targets as a PhaseList, SieveStats).

    The sieve runs on label arrays: each batch (the sample, or the merges
    of one sweep) is placed at once, in order.  The minimum-alpha bucket
    is stable-sorted by key and swept in _pair_order, with one
    rng.random(npairs) call for the extraction coins; merges that stay at
    the same alpha carry into the next sweep with the unpaired entry.
    This is the per-qubit loop's order and coin stream: when max_targets
    is reached mid-sweep, the generator is rewound to before the sweep's
    draw and draws only the coins of the merges made.

    Raises SieveExhaustedError when the buckets empty with no target."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    if max_targets < 1:
        raise ValueError("max_targets must be at least 1")
    stats = SieveStats()
    rng, mod = backend.rng, backend.oracle.ctx.modulus
    hits, buckets = [], defaultdict(list)
    held = 0

    def place(labels, classical):
        """Drop zero labels, orient the rest, set targets aside and bucket
        the others by alpha.  Returns None, or how many leading entries
        were placed when the max_targets-th target arrived."""
        nonlocal held
        keep = labels.reshape(len(labels), -1).any(axis=1)
        labels, classical = labels[keep], classical[keep]
        flip, alpha = obj.score(labels)
        labels[flip] = -labels[flip] % mod
        hit = alpha >= min_alpha
        at = np.flatnonzero(hit)
        stop = held + len(at) >= max_targets
        if stop:
            at = at[:max_targets - held]
        hits.append(PhaseList(labels[at], classical[at], backend))
        held += len(at)
        if stop:
            return int(np.flatnonzero(keep)[at[-1]]) + 1
        rest = ~hit
        labels, classical, alpha = labels[rest], classical[rest], alpha[rest]
        for a in np.bincount(alpha).nonzero()[0].tolist():
            sel = alpha == a
            buckets[a].append((labels[sel], classical[sel]))
        return None

    if place(*sample_batch(backend, budget).take()) is not None:
        return PhaseList.join(hits), stats
    while buckets:
        v = min(buckets)
        chunks = buckets.pop(v)
        while True:
            labels = np.concatenate([c[0] for c in chunks])
            classical = np.concatenate([c[1] for c in chunks])
            if len(labels) < 2:
                break
            keys = obj.keys(labels, v)
            order = np.lexsort(keys.T[::-1])
            left, right = _pair_order(_key_depths(keys[order]))
            left, right = order[left], order[right]
            stats.work += len(labels)
            # the state to rewind to, when this sweep may reach max_targets
            state = (rng.bit_generator.state
                     if held + len(left) >= max_targets else None)
            minus = rng.random(len(left)) >= backend.coin_bias
            other = labels[right]
            other[minus] = -other[minus]
            made = place((labels[left] + other) % mod,
                         classical[left] | classical[right])
            if made is not None:
                rng.bit_generator.state = state
                rng.random(made)
                stats.combines += made
                stats.work += made
                return PhaseList.join(hits), stats
            stats.combines += len(left)
            stats.work += len(left)
            lone = np.ones(len(labels), dtype=bool)
            lone[left] = lone[right] = False
            chunks = buckets.pop(v, []) + [(labels[lone], classical[lone])]
    if not held:
        raise SieveExhaustedError("greedy sieve exhausted with no target")
    return PhaseList.join(hits), stats


def default_radix_budget(r, n):
    """Empirical list size: a constant times the 3^sqrt(2 log_3 N) law."""
    log3_N = n * math.log(r, 3)
    return max(16, math.ceil(24 * 3.0 ** math.sqrt(2 * log3_N)))


def run_radix_recovery(backend, r, n, budget=None):
    """One level of the radix recursion: sieve for labels divisible by
    N/r, then read s mod r by tomography.  Greedy sieves of budget qubits
    (default_radix_budget when None) run (run_passes) until the level
    holds the copies tomography needs; a sieve that finds no target ends
    the level."""
    N = r ** n
    if backend.oracle.ctx.N != N:
        raise ValueError("oracle group order is not r^n")
    if n == 0:
        return 0, SieveStats()
    if budget is None:
        budget = default_radix_budget(r, n)
    obj = RadixObjective(r)
    want = max(5, tomography_copies_needed(r))
    targets, stats = run_passes(
        lambda held: greedy_sieve(backend, obj, n - 1, budget,
                                  max_targets=4 * want - held),
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
