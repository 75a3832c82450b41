"""Greedy radix sieve: bucket qubits by an objective function, pair the
best-matching entries of the minimum bucket, and race labels toward a
target divisibility.  Also hosts the abelian-coordinate objective and the
label-only cancellation race used by the experiment harness.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import SieveExhaustedError
from .phase import negate_label, combine, sample_batch, tomography_copies_needed, tomography_mod_r
from .staged import SieveStats


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


@dataclass
class Objective:
    """Bucketing objective: radix(r) on Z/r^n, or the per-coordinate
    abelian score on a product of cyclic groups."""

    kind: str
    r: int = 2
    orders: tuple = ()
    # optional coordinate permutation: score the label viewed in this
    # order (orders must already be permuted to match).  Lets the same
    # machinery zero out any chosen set of leading coordinates.
    perm: tuple = ()

    def _view(self, label):
        if self.perm:
            return tuple(label[i] for i in self.perm)
        return label

    def alpha(self, label):
        if self.kind == "radix":
            return alpha_radix(label, self.r)
        return alpha_abelian(self._view(label), self.orders)

    def is_zero(self, label):
        if self.kind == "radix":
            return label == 0
        return all(v == 0 for v in label)

    def needs_flip(self, label):
        """psi_k ~ psi_{-k}: orient so the first nonzero digit is small."""
        if self.kind == "radix":
            if self.r == 2:
                return False
            v = alpha_radix(label, self.r)
            return (label // self.r ** v) % self.r * 2 > self.r
        label = self._view(label)
        b = next((j for j, v in enumerate(label) if v != 0), None)
        return b is not None and label[b] * 2 > self.orders[b]

    def key(self, label):
        """Digit string beyond the cancelled digits, least significant
        first; lexicographic order puts the best partners adjacent."""
        if self.kind == "radix":
            v = alpha_radix(label, self.r)
            k = label // self.r ** v
            digits = []
            while k:
                digits.append(k % self.r)
                k //= self.r
            return tuple(digits)
        label = self._view(label)
        b = next((j for j, v in enumerate(label) if v != 0), len(label) - 1)
        return tuple(label[b:])


def _match_len(k1, k2):
    m = 0
    for a, b in zip(k1, k2):
        if a != b:
            break
        m += 1
    return m


def _pair_sweep(entries, emit, stats):
    """One sweep over a sorted min-alpha bucket: repeatedly combine the
    adjacent pair with the longest common suffix (heap with lazy
    invalidation), until at most one entry is left.  Returns the
    leftover entry or None."""
    n = len(entries)
    keys = [e[0] for e in entries]
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    nxt[-1] = -1
    alive = [True] * n
    heap = [(-_match_len(keys[i], keys[i + 1]), i, i + 1)
            for i in range(n - 1)]
    heapq.heapify(heap)
    stats.work += n
    while heap:
        _, i, j = heapq.heappop(heap)
        stats.work += 1
        if not (alive[i] and alive[j] and nxt[i] == j):
            continue
        alive[i] = alive[j] = False
        p, q = prev[i], nxt[j]
        if p >= 0:
            nxt[p] = q
        if q >= 0:
            prev[q] = p
            if p >= 0:
                heapq.heappush(heap, (-_match_len(keys[p], keys[q]), p, q))
        emit(entries[i][1], entries[j][1])
    for i in range(n):
        if alive[i]:
            return entries[i][1]
    return None


def _pairing_race(items, place, merge, stats, key, stop):
    """The greedy pairing loop shared by the sieve and the race.  place(x)
    returns (alpha, x) to bucket x, or None when x leaves the race.  The
    minimum-alpha bucket is sorted by key(x, alpha) and swept with
    _pair_sweep; each merge(x, y) result is counted in stats.combines
    and goes back through place, and results that stay at the same alpha
    carry into the next sweep.  Runs until the buckets are empty or
    stop() holds."""
    buckets = {}
    for x in items:
        placed = place(x)
        if placed is not None:
            buckets.setdefault(placed[0], []).append(placed[1])

    while buckets and not stop():
        v = min(buckets)
        group = buckets.pop(v)
        while len(group) >= 2 and not stop():
            carry = []

            def emit(x, y):
                stats.combines += 1
                placed = place(merge(x, y))
                if placed is None:
                    return
                a, out = placed
                if a == v:
                    carry.append(out)
                else:
                    buckets.setdefault(a, []).append(out)

            entries = sorted(((key(x, v), x) for x in group),
                             key=lambda e: e[0])
            lone = _pair_sweep(entries, emit, stats)
            group = carry + ([lone] if lone is not None else [])


def greedy_sieve(backend, obj, target, budget, max_targets=None):
    """Fill a list with budget sampled qubits, then greedily pair inside
    the minimum-alpha bucket to maximize the alpha of the extracted label.
    Collects qubits whose (canonicalized) labels satisfy target.

    Raises SieveExhaustedError when the buckets empty with no target."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    stats = SieveStats()
    targets = []

    def place(q):
        if obj.is_zero(q.label):
            return None
        if obj.needs_flip(q.label):
            q = negate_label(q)
        if target(q.label):
            targets.append(q)
            return None
        return obj.alpha(q.label), q

    _pairing_race(
        sample_batch(backend, budget), place, combine, stats,
        lambda q, v: obj.key(q.label),
        lambda: max_targets is not None and len(targets) >= max_targets)
    if not targets:
        raise SieveExhaustedError("greedy sieve exhausted with no target")
    return targets, stats


def default_radix_budget(r, n):
    """Empirical list size: a constant times the 3^sqrt(2 log_3 N) law."""
    log3_N = n * math.log(r, 3)
    return max(16, math.ceil(24 * 3.0 ** math.sqrt(2 * log3_N)))


def run_radix_recovery(backend, r, n, budget=None, scale=1):
    """One level of the radix recursion: sieve for labels divisible by
    N/r, then read s mod r by tomography.  scale multiplies the list
    size; callers raise it when retrying after exhaustion."""
    N = r ** n
    if backend.oracle.ctx.N != N:
        raise ValueError("oracle group order is not r^n")
    if n == 0:
        return 0, SieveStats()
    if budget is None:
        budget = default_radix_budget(r, n)
    budget *= scale
    obj = Objective("radix", r=r)
    step = N // r
    want = max(5, tomography_copies_needed(r))
    if n == 1:
        # every nonzero label is already final; sample directly
        qs = [q for q in sample_batch(backend, max(budget, 4 * want))
              if q.label != 0]
        if not qs:
            raise SieveExhaustedError("no nonzero label sampled")
        return tomography_mod_r(qs[: 4 * want], r), SieveStats()
    targets, stats = greedy_sieve(
        backend, obj, lambda k: k % step == 0, budget, max_targets=4 * want)
    if r > 2 and len(targets) < tomography_copies_needed(r):
        raise SieveExhaustedError(
            f"only {len(targets)} target copies; tomography needs more")
    return tomography_mod_r(targets, r), stats


def race_key(k, v):
    """Binary digits of k beyond its v cancelled ones, least significant
    first, as a string: it sorts like the digit tuple, and adjacent
    strings share the longest low-bit suffixes."""
    return bin(k >> v)[:1:-1]


def cancellation_race(labels, rng):
    """Label-only simulation of the greedy sieve: run the binary pairing
    race on plain integer labels and report the maximum alpha value
    reached before the lists exhaust.  This is the Table-1 experiment.

    The race is binary: for r > 2 it would have to reorient labels by
    k ~ -k modulo r^n, which labels kept in Z cannot express."""
    stats = SieveStats()
    best = 0

    def place(k):
        nonlocal best
        if k == 0:
            return None
        v = alpha_radix(k, 2)
        best = max(best, v)
        return v, k

    def merge(k, l):
        return k + l if rng.random() < 0.5 else abs(k - l)

    _pairing_race(labels, place, merge, stats, race_key, lambda: False)
    return best, stats
