"""Greedy sieve: bucket sampled labels by an objective, pair the
best-matching entries of the minimum bucket, and race labels toward a
target alpha, on label arrays, through the chain recursion that reads
every smooth group a few digits a step.  Also hosts the label-only
cancellation race used by the experiment harness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict

import numpy as np

from .errors import (
    BackendMismatchError,
    QubitConsumedError,
    SieveExhaustedError,
)
from .group import int_dtype
from .phase import (
    PhaseList,
    Readout,
    combine,  # noqa: F401  (bound here for perfbench's tracer)
    combine_pairs,
    sample_batch,
    tomography_mod_r,
)
from .staged import MAX_PASSES, SieveStats


class Objective:
    """The one greedy objective: label k is read as the row of residues
    k[columns[i]] mod moduli[i] (chain_plan builds one per group, and each
    step takes a prefix of it), and merges move labels toward rows that
    are zero up to the last entry.  alpha is the place of the row's
    first nonzero entry, D = len(moduli) for a zero label, so a target
    scores target = D - 1, and the key is
    the row from alpha up to the target, then -1: two labels that match
    on the key merge to a target or to zero.  (Keyed on the last entry
    too, equal labels would match deepest, pair first and merge to zero
    or to twice the label.)  The methods take an array of labels, int64
    or object, one label per row."""

    def __init__(self, columns, moduli):
        self.columns = np.array(columns, dtype=np.int64)
        self.moduli = np.array(moduli, dtype=int_dtype(max(moduli, default=1)))
        self.target = len(self.moduli) - 1
        # the row's (column, modulus) entries: Carried.take compares prefixes
        self.row = tuple(zip(self.columns.tolist(), self.moduli.tolist()))

    def prefix(self, n):
        """The objective on the first n entries of the row, its arrays
        views of this one's."""
        obj = object.__new__(Objective)
        obj.columns, obj.moduli = self.columns[:n], self.moduli[:n]
        obj.target, obj.row = n - 1, self.row[:n]
        return obj

    def _rows(self, labels, start=0):
        """Entries start.. of each label's row (a 1-D array: one column)."""
        if labels.ndim == 1:
            return labels[:, None] % self.moduli[start:]
        return labels[:, self.columns[start:]] % self.moduli[start:]

    def score(self, labels):
        """(flip, alpha): psi_k ~ psi_{-k}, and negation keeps alpha, so
        flip marks the labels whose first nonzero entry v lies past half
        its modulus (2v > modulus)."""
        rows = self._rows(labels)
        alpha = (rows != 0).argmax(axis=1)
        lead = rows[np.arange(len(rows)), alpha]
        flip = 2 * lead > self.moduli[alpha]
        alpha[lead == 0] = self.target + 1
        return flip, alpha

    def keys(self, labels, alpha):
        """Key matrix of labels of one alpha below the target: row i holds
        the entries alpha, ..., target - 1 of labels[i]'s row, and a -1
        that ends every row."""
        keys = self._rows(labels, alpha)
        keys[:, -1] = -1
        return keys


def _pair_order(depths):
    """Pairing order of a sorted sweep whose adjacent entries i, i + 1
    share depths[i] leading key digits: (pairs, lone), pairs a (count, 2)
    array of (left, right) indices, the deepest match first and ties by
    left position, until at most one entry is left, and lone that entry
    (-1 for none).  Keys are sorted, so two entries match to the minimum
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
    found = {}
    # the open nodes below the top one, over a sentinel below every gap:
    # (depth, the entry it holds or -1); top and h are the top node's,
    # and c is the entry reaching the gap
    stack, top, h = [], -2, -1
    for c, g in enumerate(gaps):
        while top > g:
            if h >= 0:
                if c < 0:
                    c = h
                else:
                    found.setdefault(top, []).extend((h, c))
                    c = -1
            top, h = stack.pop()
        if top < g:
            stack.append((top, h))
            top, h = g, c
        elif c >= 0:
            if h < 0:
                h = c
            else:
                found.setdefault(g, []).extend((h, c))
                h = -1
    pairs = np.array([x for d in sorted(found, reverse=True)
                      for x in found[d]], dtype=np.int64)
    return pairs.reshape(-1, 2), h


def _join(chunks):
    """One (labels, classical) pair from a nonempty list of them."""
    return (chunks[0] if len(chunks) == 1 else
            tuple(map(np.concatenate, zip(*chunks))))


class Carried:
    """The labels a greedy sieve call leaves for the next, as it placed
    them under obj: oriented, reduced and bucketed by alpha.  buckets[a]
    lists (labels, classical) chunks in placement order, an entry the
    call left alone in its bucket included.  A call under an objective
    whose row is a prefix of obj's keeps each alpha and orientation; a
    label past the shorter row is zero there."""

    __slots__ = ("obj", "buckets", "backend", "consumed")

    def __init__(self, obj, buckets, backend):
        self.obj, self.buckets = obj, buckets
        self.backend, self.consumed = backend, False

    def take(self, backend, obj):
        """Consume the state for a call on backend under obj: its buckets.
        Raises before it consumes anything."""
        if self.backend is not backend:
            raise BackendMismatchError(
                "carried qubits belong to another backend")
        if self.obj.row[:len(obj.row)] != obj.row:
            raise ValueError("objective is not a prefix of the carried one")
        if self.consumed:
            raise QubitConsumedError("carried state already consumed")
        self.consumed = True
        return self.buckets


def greedy_sieve(backend, obj, budget, readout, carried=None):
    """Greedily pair inside the minimum-alpha bucket to maximize the alpha
    of the extracted label, on a sieve state that outlives the call.  The
    labels (oriented as obj.score flips them) that score obj.target, the
    objective's top alpha, are targets: each batch of them placed at once
    goes to readout as a PhaseList, in placement order, and the sieve
    stops as soon as readout returns a value other than None.  Labels
    that score past the target (zero under obj) drop.  carried is the
    Carried state an earlier call left, or None; obj's row must be a
    prefix of that call's, so no carried label is scored again: its
    bucket at obj.target is the first batch of targets, its buckets past
    it drop, and the rest stay bucketed.  A fresh pass of budget sampled
    qubits is placed only when no bucket is left to sweep.  Returns (that
    value, SieveStats, the Carried state of every label the call still
    holds, for the next call); raises SieveExhaustedError, with the
    call's SieveStats, when none is left after MAX_PASSES fresh passes.

    The sieve runs on label arrays: each batch (a fresh pass, or the
    merges of one sweep) is scored and placed at once, in order.  The
    minimum-alpha bucket is stable-sorted by key and swept in
    _pair_order, with one rng.random(npairs) call for the extraction
    coins; merges that stay at the same alpha carry into the next sweep
    with the unpaired entry, and a bucket left with one entry waits for
    the next fresh pass (it was the minimum, and merges never lower
    alpha, so nothing else reaches it).  This is the per-qubit loop's
    order and coin stream, with the readout called after each sweep's
    draws."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    stats = SieveStats()
    mod, top = backend.oracle.ctx.modulus, obj.target
    buckets = carried.take(backend, obj) if carried else defaultdict(list)
    targets = buckets.pop(top, None)
    for a in [a for a in buckets if a > top]:
        del buckets[a]

    def place(labels, classical):
        """Orient the labels and stable-sort them by alpha: below the top
        buckets a label, the top makes it a target, and past it (a zero
        label), last, drops it.  Returns the readout's value (None
        without targets)."""
        flip, alpha = obj.score(labels)
        np.negative(labels.T, out=labels.T, where=flip)
        labels %= mod
        order = alpha.argsort(kind="stable")
        labels, classical = labels[order], classical[order]
        counts = np.bincount(alpha, minlength=top + 2).tolist()
        start = 0
        for a, count in enumerate(counts[:top]):
            if count:
                end = start + count
                buckets[a].append((labels[start:end], classical[start:end]))
                start = end
        if not counts[top]:
            return None
        end = start + counts[top]
        return readout(PhaseList(labels[start:end], classical[start:end],
                                 backend))

    value = readout(PhaseList(*_join(targets), backend)) if targets else None
    passes, alone = 0, set()
    while value is None:
        live = buckets.keys() - alone
        if not live:
            if passes == MAX_PASSES:
                raise SieveExhaustedError(
                    f"readout undecided after {passes} passes of {budget}"
                    " labels", stats)
            passes += 1
            alone.clear()
            value = place(*sample_batch(backend, budget).take())
            continue
        v = min(live)
        labels, classical = _join(buckets.pop(v))
        n = len(labels)
        if n < 2:
            buckets[v] = [(labels, classical)]
            alone.add(v)
            continue
        # sorted keys, and the entries adjacent rows share: the last
        # column, every row's -1, is never shared, so each pair fails to
        # match in the matrix
        keys = obj.keys(labels, v)
        order = np.lexsort(keys.T[-2::-1])
        keys = keys.take(order, axis=0)
        same = keys[1:] == keys[:-1]
        same[:, -1] = False
        pairs, lone = _pair_order(same.argmin(axis=1))
        pairs = order[pairs].T
        npairs = pairs.shape[1]
        merged, merged_classical, _ = combine_pairs(backend, labels,
                                                    classical, pairs)
        stats.combines += npairs
        stats.work += n + npairs
        value = place(merged, merged_classical)
        if lone >= 0:
            i = order[lone]
            buckets[v].append((labels[i:i + 1], classical[i:i + 1]))
    return value, stats, Carried(obj, buckets, backend)


# laws of 3^sqrt(2 log_3 N) labels one greedy pass samples (CHANGES.md
# has the measured choices)
_LAWS = 3
# largest prime a chain reads, and largest step modulus: a step's readout
# scores that many residues per copy
_MAX_PRIME = 1 << 12


@functools.lru_cache(maxsize=256)
def list_size(order):
    """Labels one greedy pass samples on a group of the given order: a
    chain step samples passes of list_size of the unread order, r^m on a
    radix level with m digits left."""
    return math.ceil(_LAWS * 3.0 ** math.sqrt(2 * math.log(max(3, order), 3)))


def run_chain(backend, budget=None):
    """Read s one step at a time, on the backend's own oracle and one
    carried greedy sieve state, in the steps of chain_plan of the group's
    orders.  The step reading p from
    coordinate j sieves for tomography_mod_r's targets, with the row of
    the unread part of the group: the coordinates after j in reverse read
    order, then j, each as the divisor chain of its unread steps
    multiplied in from the last (k mod r, ..., mod r^m on a radix level
    with m digits left).  So each row is the one before without its last
    entry: the Carried state keeps every label's alpha and orientation,
    and a step hands its bucket at the new target to the readout and
    scores only what it samples or merges.  A step samples passes of
    budget labels (list_size of the unread order when None) only when
    its carried buckets run empty.  Returns (s, SieveStats summed), s a
    list of coordinates (zeros, unsampled, on a group of order 1); an
    undecided step raises SieveExhaustedError, and a group chain_plan
    refuses raises its ValueError before anything is drawn."""
    ctx = backend.oracle.ctx
    shape = np.asarray(ctx.zero).shape
    s, stats, carried = [0] * len(ctx.orders), SieveStats(), None
    for j, q, offsets, obj, unread in chain_plan(ctx.orders):
        # the read coordinates at their values and j at s_j + q t: a
        # point per row, shaped as the group's elements (s cast first, so
        # a value past int64 stays a Python int)
        points = offsets + np.array(s, dtype=offsets.dtype)
        readout = Readout(points.reshape(len(offsets), *shape))
        digit, level, carried = greedy_sieve(
            backend, obj, budget or list_size(unread),
            lambda targets: tomography_mod_r(targets, readout), carried)
        s[j] += digit * q
        stats += level
    return s, stats


@functools.lru_cache(maxsize=64)
def chain_plan(orders):
    """The chain's steps on a group of the given orders, in read order,
    each as (j, q, offsets, objective, unread order): the step reads
    (s_j // q) mod p, offsets is the read-only (p, rank) matrix of
    q t on coordinate j (t = 0..p-1), and the objective is the prefix of
    the chain's row that ends at the step.

    Each order's prime digits, ascending, come from trial division up to
    _MAX_PRIME; a factor past it left over raises ValueError.  A step at
    unread order U (the orders still unread where it starts) starts at
    one digit p and takes in the next while it is p and the product m
    stays within _MAX_PRIME and below the unread order where its
    coordinate starts (a step reads all of the last coordinate only when
    that is one digit), and
      - for an odd prime, m <= p^3 and m <= list_size(U) / 2;
      - for 2, m <= 4 on the first coordinate read, while list_size(U)
        is at least half of list_size of the group's order: one copy
        reads a bit exactly, so a pair only adds readout copies, and
        pairs cost queries late (all the way, 2^20 3.7% more) and on a
        coordinate read after another (on Z3+Z4096, 2.7% more).
    CHANGES.md has the rules tried, with their queries and CPU."""
    order = unread = math.prod(orders)
    first, steps = list_size(order), []
    for size in orders:
        chain, start, pairs, n, p = [], unread, unread == order, size, 2
        while n > 1:
            if p * p > n:
                p = n
            if p > _MAX_PRIME:
                raise ValueError("the chain reads prime factors <="
                                 f" {_MAX_PRIME}; order {size} has a"
                                 " larger one")
            if n % p:
                p += 1
                continue
            n //= p
            m = chain[-1] * p if chain and chain[-1] % p == 0 else 0
            if (m and m <= _MAX_PRIME and m < start
                    and (pairs and m <= 4 and 2 * list_size(unread) >= first
                         if p == 2 else
                         m <= p ** 3 and 2 * m <= list_size(unread))):
                chain[-1] = m
            else:
                if chain:
                    unread //= chain[-1]
                chain.append(p)
        if chain:
            unread //= chain[-1]
        steps.append(chain)
    dtype = int_dtype(max(orders, default=1))
    columns, moduli = [], []
    for i in range(len(steps) - 1, -1, -1):
        columns += [i] * len(steps[i])
        moduli += itertools.accumulate(steps[i][::-1], operator.mul)
    row, depth, unread, plan = Objective(columns, moduli), len(moduli), \
        order, []
    for j, chain in enumerate(steps):
        q = 1
        for p in chain:
            offsets = np.zeros((p, len(orders)), dtype=dtype)
            offsets[:, j] = q * np.arange(p, dtype=dtype)
            offsets.flags.writeable = False
            plan.append((j, q, offsets, row.prefix(depth), unread))
            q *= p
            depth -= 1
            unread //= p
    return tuple(plan)


def run_radix_recovery(backend, r, n, budget=None):
    """The radix recursion over Z/r^n: run_chain, whose chain_plan reads
    the prime digits of r^n a few at a time (a composite r as its
    primes).  Returns (s, SieveStats)."""
    if backend.oracle.ctx.orders != (operator.index(r) ** operator.index(n),):
        raise ValueError("group order is not r^n")
    (s,), stats = run_chain(backend, budget)
    return s, stats


# each byte with its bits reversed, and its count of leading zero bits
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                 dtype=np.uint8)
_CLZ8 = np.array([8 - b.bit_length() for b in range(256)], dtype=np.int64)


def race_key(odd, nbytes):
    """Key matrix of a race bucket: row i holds the binary digits of
    odd[i], least significant first, zero-padded to nbytes bytes.  Rows
    compare bytewise like the digit strings do (a string sorts before its
    extensions), and adjacent rows share the longest low-bit suffixes."""
    raw = b"".join([k.to_bytes(nbytes, "little") for k in odd])
    return _REV8[np.frombuffer(raw, dtype=np.uint8).reshape(len(odd), nbytes)]


def _race_bucket(odd, nbytes):
    """Sort one race bucket of odd parts by race_key (stable), and return
    the sorted order with the match depth of each adjacent pair: the
    common leading key bits, capped at the shorter digit string."""
    keys = race_key(odd, nbytes)
    order = np.lexsort(keys.T[::-1])
    keys = keys.take(order, axis=0)
    diff = keys[1:] ^ keys[:-1]
    first = (diff != 0).argmax(axis=1)
    depth = 8 * first + _CLZ8[diff[np.arange(len(diff)), first]]
    depth[~diff.any(axis=1)] = 8 * nbytes
    bits = np.fromiter(map(int.bit_length, odd), dtype=np.int64,
                       count=len(odd)).take(order)
    return order, np.minimum(depth, np.minimum(bits[1:], bits[:-1]))


def cancellation_race(labels, rng):
    """Label-only simulation of the greedy sieve: run the binary pairing
    race on plain integer labels and report the maximum alpha value
    reached before the lists exhaust.  This is the Table-1 experiment.

    Each bucket is swept once, in ascending alpha v: two labels of alpha
    v merge to a label of larger alpha (or zero, which leaves the race),
    so the buckets above v only grow while v is swept.  A bucket holds
    the odd parts k >> v of its labels, which never outgrow the widest
    input label: two odd parts merge to an even m, whose label lands in
    bucket v + t with odd part m >> t, t the 2-adic valuation of m.  A
    bucket is paired in _pair_order by race_key; one rng.random(npairs)
    call draws the coins, the stream one call per merge would draw.

    Labels are nonnegative integers (numpy integers included); a
    negative one is refused before anything is drawn.  The race is
    binary: for r > 2 it would have to reorient labels by k ~ -k modulo
    r^n, which labels kept in Z cannot express."""
    labels = list(map(operator.index, labels))
    if min(labels, default=0) < 0:
        raise ValueError("race labels must be nonnegative")
    stats = SieveStats()
    nbytes = max(1, (max(labels, default=0).bit_length() + 7) // 8)
    buckets = defaultdict(list)
    for k in labels:
        if k:
            t = (k & -k).bit_length() - 1
            buckets[t].append(k >> t)
    best = 0
    while buckets:
        v = min(buckets)
        group = buckets.pop(v)
        best = max(best, v)
        if len(group) < 2:
            continue
        order, depth = _race_bucket(group, nbytes)
        pairs, _ = _pair_order(depth)
        coins = rng.random(len(pairs))
        stats.work += len(group) + len(pairs)
        stats.combines += len(pairs)
        left, right = order[pairs].T.tolist()
        for i, j, c in zip(left, right, coins.tolist()):
            k, l = group[i], group[j]
            m = k + l if c < 0.5 else abs(k - l)
            if m:
                t = (m & -m).bit_length() - 1
                buckets[v + t].append(m >> t)
    return best, stats
