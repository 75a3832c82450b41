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


def _first_nonzero(rows):
    """Index of the first nonzero entry of each row of a matrix whose
    rows are not all zero."""
    return (rows != 0).argmax(axis=1)


class RadixObjective:
    """Objective on Z/r^n: alpha is the r-adic valuation, and the key is
    the digit string beyond the cancelled digits, least significant
    first, so lexicographic order puts the best partners adjacent.  The
    key stops short of digit target, the target alpha, which a target
    need not cancel: two labels that match on the key merge to a target
    or to zero.  (Keyed on the digits past it too, equal labels would
    match deepest, pair first and merge to zero or, for odd r, to a
    label of the same alpha.)  The methods take an array of nonzero labels,
    int64 or object."""

    def __init__(self, r, target):
        self.r = r
        self.target = target

    def _powers(self, q):
        """The powers r^0, ..., r^(w-1) that weigh the digits of the
        positive integers q, w the digit count of the largest, in q's
        dtype."""
        top, w = int(q.max(initial=0)), 1
        while self.r ** w <= top:
            w += 1
        return np.array([self.r ** j for j in range(w)], dtype=q.dtype)

    def score(self, labels):
        """(flip, alpha): alpha is the valuation, which negation keeps:
        the count of j >= 1 with r^j dividing k, as no label reaches r^w
        (a gcd with r^(w-1) would read it only for prime r); psi_k ~
        psi_{-k}, so flip marks the labels whose first nonzero digit
        (that of k / r^alpha) is large."""
        pows = self._powers(labels)
        alpha = (labels[:, None] % pows[1:] == 0).sum(axis=1)
        return labels // pows[alpha] % self.r * 2 > self.r, alpha

    def keys(self, labels, alpha):
        """Key matrix of labels of one alpha below the target: row i
        holds the digits of labels[i] // r^alpha, least significant
        first, up to digit target, padded with -1."""
        q = labels // self.r ** alpha
        pows = self._powers(q)[:self.target - alpha]
        keys = q[:, None] // pows
        keys %= self.r
        keys[q[:, None] < pows] = -1
        return keys.astype(np.int64, copy=False)


class CoordinateObjective:
    """Per-coordinate abelian objective on a product of cyclic groups of
    the given orders.  A label is read in the coordinate order perm, so
    the sieve zeroes any chosen set of leading coordinates; the key is
    the view from its first nonzero coordinate b on, short of the last
    coordinate, which a target need not cancel: two labels that match on
    the key merge to a target or to zero.  (Keyed on the last coordinate
    too, equal labels would match deepest, pair first and merge to zero
    or to twice the label; in Z2^k always to zero.)  alpha credits each
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
        b = _first_nonzero(view)
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
        """Key matrix of labels of one alpha below full_score: row i
        holds the view of labels[i] from b to the last coordinate,
        exclusive, padded with -1."""
        view, b, _ = self._lead(labels)
        n, a = view.shape
        padded = np.concatenate([view[:, :-1], np.full_like(view, -1)],
                                axis=1)
        return padded[np.arange(n)[:, None], b[:, None] + np.arange(a - 1)]


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
    depth over the gap between them, and the entries joined by gaps of
    at least d form a node of depth d.  One left-to-right pass keeps the
    open nodes on a stack, shallowest first; each node holds at most one
    unpaired entry, pairs it with the next entry that reaches it, and
    hands it to its parent when a shallower gap closes the node.  A
    node's pairs come out left to right, and a node closes before any
    node to its right opens at its depth, so listing each depth's pairs
    in the order made sorts them by (-depth, left)."""
    gaps = np.asarray(depths).tolist()
    gaps.append(-1)
    found = defaultdict(list)
    # the open nodes' depths over a sentinel below every gap, and the
    # entry each holds (-1 for none); c is the entry reaching the gap
    depth, held, top = [-2], [-1], -2
    for c, g in enumerate(gaps):
        while top > g:
            h = held.pop()
            if h >= 0:
                if c < 0:
                    c = h
                else:
                    found[top] += (h, c)
                    c = -1
            depth.pop()
            top = depth[-1]
        if top < g:
            depth.append(g)
            held.append(c)
            top = g
        elif c >= 0:
            if held[-1] < 0:
                held[-1] = c
            else:
                found[g] += (held[-1], c)
                held[-1] = -1
    pairs = np.array([x for d in sorted(found, reverse=True)
                      for x in found[d]], dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


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
        # the rest stable-sorted by alpha, one slice per bucket
        rest = np.flatnonzero(~hit)
        alpha = alpha[rest]
        rest = rest[np.argsort(alpha, kind="stable")]
        labels, classical = labels[rest], classical[rest]
        start = 0
        for a, count in enumerate(np.bincount(alpha).tolist()):
            if count:
                end = start + count
                buckets[a].append((labels[start:end], classical[start:end]))
                start = end
        return None

    if place(*sample_batch(backend, budget).take()) is not None:
        return PhaseList.join(hits), stats
    while buckets:
        v = min(buckets)
        chunks = buckets.pop(v)
        while chunks:
            labels = np.concatenate([c[0] for c in chunks])
            classical = np.concatenate([c[1] for c in chunks])
            n = len(labels)
            if n < 2:
                break
            keys = obj.keys(labels, v)
            order = np.lexsort(keys.T[::-1])
            left, right = _pair_order(_key_depths(keys[order]))
            left, right = order[left], order[right]
            stats.work += n
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
            chunks = buckets.pop(v, [])
            if n % 2:
                # the one entry left unpaired: every index but it is paired
                i = n * (n - 1) // 2 - int(left.sum()) - int(right.sum())
                chunks.append((labels[i:i + 1], classical[i:i + 1]))
    if not held:
        raise SieveExhaustedError("greedy sieve exhausted with no target")
    return PhaseList.join(hits), stats


# The list-size rule, in laws of 3^sqrt(2 log_3 N) labels, chosen from
# measured single-pass yields (CHANGES.md has the table).  At 12 laws a
# pass holds 2 to 16 copies per law over the levels and coordinates
# measured, and at least 3 at every level that asks for more than one,
# so sizing for _COPIES_PER_LAW lets nearly every first pass hold all it
# needs.  Sizing for 3, 4 or 6 copies per law spent fewer queries but
# made more, smaller sweeps, whose fixed cost made Z16+Z9 recoveries
# take about 1.2, 1.3 and 1.6 times as long as under this rule.
# _MAX_LAWS caps the passes that ask for many copies (56 and 83 at
# r = 5 and 7): at 12 laws every level that reads 24 copies or more
# holds at least 37 on average, and a larger list holds copies that no
# readout reads.  With _MIN_LAWS, r = 2 levels (one copy each) sample 3
# laws; 100 seeded recoveries each at r = 2, n = 4, 12 and 20, and at
# r = 3, 5 and 7, n = 2, verified in their first attempt, and 99 at
# r = 2, n = 8.
_COPIES_PER_LAW = 2
_MIN_LAWS = 3
_MAX_LAWS = 12


def list_size(order, copies):
    """Labels one greedy pass samples on a group of the given order when
    it should add copies more target copies: copies / _COPIES_PER_LAW
    laws of 3^sqrt(2 log_3 N) labels, at least _MIN_LAWS and at most
    _MAX_LAWS of them.  Every radix level and abelian coordinate sizes
    its passes by this rule, so a later pass samples only for the copies
    still needed."""
    law = 3.0 ** math.sqrt(2 * math.log(max(3, order), 3))
    laws = min(_MAX_LAWS, max(_MIN_LAWS, copies / _COPIES_PER_LAW))
    return math.ceil(law * laws)


def run_radix_recovery(backend, r, n, budget=None):
    """One level of the radix recursion: sieve for labels divisible by
    N/r, then read s mod r by tomography.  Greedy sieves run (run_passes)
    until the level holds the copies tomography needs; each pass samples
    budget qubits, or when budget is None list_size for the copies still
    needed.  A sieve that finds no target ends the level."""
    N = r ** n
    if backend.oracle.ctx.N != N:
        raise ValueError("oracle group order is not r^n")
    if n == 0:
        return 0, SieveStats()
    obj = RadixObjective(r, n - 1)
    need = tomography_copies_needed(r)
    cap = 4 * max(5, need)
    targets, stats = run_passes(
        lambda held: greedy_sieve(backend, obj, n - 1,
                                  budget or list_size(N, need - held),
                                  max_targets=cap - held),
        need)
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
