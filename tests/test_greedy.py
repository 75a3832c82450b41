"""Greedy radix sieve: objective functions, suffix pairing, the
cancellation race, and residue recovery."""

import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhsieve import greedy
from dhsieve.errors import SieveExhaustedError
from dhsieve.greedy import (
    CoordinateObjective,
    RadixObjective,
    _match_len,
    _pair_order,
    _race_bucket,
    alpha_abelian,
    alpha_radix,
    cancellation_race,
    default_radix_budget,
    greedy_sieve,
    race_key,
    run_radix_recovery,
)
from dhsieve.group import GroupCtx
from dhsieve.harness import _random_labels
from dhsieve.oracle import make_reflection_oracle
from dhsieve.phase import (
    PhaseBackend,
    combine,
    negate_label,
    sample_batch,
    tomography_copies_needed,
)
from dhsieve.recover import recover_slope_radix
from dhsieve.staged import MAX_PASSES, SieveStats


def backend(N, s, seed=0):
    return PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                        rng=np.random.default_rng(seed))


def test_alpha_radix_frozen():
    assert alpha_radix(12, 2) == 2
    assert alpha_radix(0, 2) == 0
    assert alpha_radix(54, 3) == 3  # 54 = 2 * 3^3


@given(st.integers(1, 10 ** 9), st.sampled_from([2, 3, 5]))
def test_alpha_radix_valuation(k, r):
    a = alpha_radix(k, r)
    assert k % r ** a == 0 and (k // r ** a) % r != 0


def test_alpha_abelian_frozen():
    A = (5, 7)
    assert alpha_abelian((2, 3), A) == 2
    assert alpha_abelian((0, 3), A) == 8
    assert alpha_abelian((1, 0), A) == 3
    assert alpha_abelian((0, 0), A) == 8


def test_objective_canonicalization():
    obj = RadixObjective(3)
    assert not obj.needs_flip(9)       # leading digit 1
    assert obj.needs_flip(18)          # leading digit 2 -> negate
    obj_a = CoordinateObjective((16, 9), (0, 1))
    assert obj_a.needs_flip((12, 3))
    assert not obj_a.needs_flip((4, 8))


def test_objective_key_orders_by_low_digits():
    obj = RadixObjective(2)
    # 0b0101 and 0b1101 share two low bits beyond alpha=0
    k1, k2, k3 = 0b0101, 0b1101, 0b0011
    key1, key2, key3 = (obj.rank(k)[1] for k in (k1, k2, k3))
    assert key1[:2] == key2[:2]
    assert key1[:2] != key3[:2]


@dataclass
class _ReferenceObjective:
    """The single objective the two above replace, kept as a reference:
    a kind switch between radix(r) and the permuted coordinate score."""

    kind: str
    r: int = 2
    orders: tuple = ()
    perm: tuple = ()

    def _view(self, label):
        if self.perm:
            return tuple(label[i] for i in self.perm)
        return label

    def alpha(self, label):
        if self.kind == "radix":
            return alpha_radix(label, self.r)
        return alpha_abelian(self._view(label), self.orders)

    def needs_flip(self, label):
        if self.kind == "radix":
            if self.r == 2:
                return False
            v = alpha_radix(label, self.r)
            return (label // self.r ** v) % self.r * 2 > self.r
        label = self._view(label)
        b = next((j for j, v in enumerate(label) if v != 0), None)
        return b is not None and label[b] * 2 > self.orders[b]

    def key(self, label):
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


@given(st.integers(1, 10 ** 12), st.sampled_from([2, 3, 5]))
def test_radix_objective_matches_reference(k, r):
    ref = _ReferenceObjective("radix", r=r)
    obj = RadixObjective(r)
    assert obj.needs_flip(k) == ref.needs_flip(k)
    assert obj.rank(k) == (ref.alpha(k), ref.key(k))


_COORDINATE_CASES = [(orders, perm)
                     for orders in ((16, 9), (5, 7), (4, 4, 3))
                     for perm in itertools.permutations(range(len(orders)))]


@given(st.data())
def test_coordinate_objective_matches_reference(data):
    orders, perm = data.draw(st.sampled_from(_COORDINATE_CASES))
    label = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
    ref = _ReferenceObjective(
        "abelian", orders=tuple(orders[i] for i in perm), perm=perm)
    obj = CoordinateObjective(orders, perm)
    assert obj.needs_flip(label) == ref.needs_flip(label)
    assert obj.rank(label) == (ref.alpha(label), ref.key(label))


@given(st.integers(1, 1 << 30), st.integers(1, 1 << 30), st.integers(2, 6))
def test_r2_match_bonus(a, b, t):
    # two odd labels sharing t >= 2 low bits: the difference cancels at
    # least t bits, the sum at least 1
    a |= 1
    b = (b & ~((1 << t) - 1)) | (a & ((1 << t) - 1))
    if a == b:
        return
    assert alpha_radix(abs(a - b), 2) >= t
    assert alpha_radix(a + b, 2) >= 1


def test_greedy_sieve_budget_validation():
    obj = RadixObjective(2)
    with pytest.raises(ValueError):
        greedy_sieve(backend(16, 5), obj, lambda k: False, 1)


def test_greedy_sieve_no_deadlock_tiny_budget():
    obj = RadixObjective(2)
    be = backend(16, 5, seed=1)
    try:
        targets, st = greedy_sieve(be, obj, lambda k: k % 8 == 0, 2)
        assert targets
    except SieveExhaustedError:
        pass  # also acceptable: never hangs


def test_greedy_sieve_targets_and_stats():
    obj = RadixObjective(2)
    be = backend(1 << 10, 345, seed=2)
    targets, st = greedy_sieve(be, obj, lambda k: k % (1 << 9) == 0, 1024)
    assert all(q.label == 1 << 9 for q in targets)
    assert all(not q.consumed for q in targets)
    assert be.oracle.queries == 1024


def test_greedy_sieve_pinned_record():
    # pinned record; r = 3 exercises the flips and the max_targets stop,
    # which returns exactly the 4 targets asked for
    obj = RadixObjective(3)
    be = backend(3 ** 6, 100, seed=11)
    targets, st = greedy_sieve(be, obj, lambda k: k % 243 == 0, 300,
                               max_targets=4)
    assert [q.label for q in targets] == [243] * 4
    assert (st.combines, st.work, be.oracle.queries) == (44, 258, 300)


def test_greedy_sieve_pinned_record_below_max_targets():
    # a sieve that empties its buckets before max_targets: the whole
    # record, and the generator state after it, are pinned
    obj = RadixObjective(3)
    be = backend(3 ** 6, 100, seed=11)
    targets, st = greedy_sieve(be, obj, lambda k: k % 243 == 0, 300,
                               max_targets=50)
    assert [q.label for q in targets] == [243] * 25
    assert (st.combines, st.work, be.oracle.queries) == (220, 667, 300)
    assert be.rng.random() == 0.9739700411195548


@pytest.mark.parametrize("k", [1, 4, 124])
def test_greedy_sieve_stops_at_the_kth_target(k, monkeypatch):
    # no combine runs after the k-th target arrives
    calls, hits, at_kth = [], [], []
    real_combine = greedy.combine

    def counting_combine(q1, q2):
        calls.append(1)
        return real_combine(q1, q2)

    def target(label):
        if label % 3 ** 7 == 0:
            hits.append(label)
            if len(hits) == k:
                at_kth.append(len(calls))
            return True
        return False

    monkeypatch.setattr(greedy, "combine", counting_combine)
    be = backend(3 ** 8, 4321, seed=1)
    targets, st = greedy_sieve(be, RadixObjective(3), target, 1944,
                               max_targets=k)
    assert len(targets) == k and at_kth
    assert len(calls) == st.combines == at_kth[0]


def test_greedy_sieve_stops_in_the_first_placement():
    # at 3^3 sampled labels already hit the target: the sieve stops while
    # placing the sample, before any combine
    be = backend(3 ** 3, 7, seed=5)
    targets, st = greedy_sieve(be, RadixObjective(3), lambda k: k % 9 == 0,
                               200, max_targets=3)
    assert [q.label for q in targets] == [9] * 3
    assert (st.combines, be.oracle.queries) == (0, 200)



def _callback_sieve(backend, obj, target, budget):
    """greedy_sieve with no max_targets, run on the callback loop."""
    targets, stats = [], SieveStats()

    def place(q):
        if q.label == backend.oracle.ctx.zero:
            return None
        if obj.needs_flip(q.label):
            q = negate_label(q)
        if target(q.label):
            targets.append(q)
            return None
        return (*obj.rank(q.label), q)

    _pairing_race(sample_batch(backend, budget), place, combine, stats)
    return targets, stats


@pytest.mark.parametrize("r, n, t, budget", [(2, 10, 9, 300), (3, 6, 5, 300),
                                             (5, 4, 3, 120)])
def test_greedy_sieve_matches_callback_loop(r, n, t, budget):
    # the same targets, stats and generator state as the callback loop
    target = lambda k: k % r ** t == 0
    for seed in range(6):
        be, twin = (backend(r ** n, 100 + seed, seed) for _ in range(2))
        ref, ref_st = _callback_sieve(twin, RadixObjective(r), target, budget)
        try:
            got, st = greedy_sieve(be, RadixObjective(r), target, budget)
        except SieveExhaustedError:
            got, st = [], ref_st
        assert [q.label for q in got] == [q.label for q in ref]
        assert (st.combines, st.work) == (ref_st.combines, ref_st.work)
        assert be.rng.random() == twin.rng.random()

def test_greedy_quasilinear_work():
    obj = RadixObjective(2)
    budget = 4096
    be = backend(1 << 16, 54321, seed=3)
    _, st = greedy_sieve(be, obj, lambda k: k % (1 << 15) == 0, budget)
    assert st.work <= 40 * budget * math.log2(budget)


def test_greedy_hit_rate_large_budget():
    # moderately sized version of the designed operating point
    hits = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = int(rng.integers(0, 1 << 16))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 16), s), rng=rng)
        obj = RadixObjective(2)
        try:
            t, _ = greedy_sieve(be, obj, lambda k: k % (1 << 15) == 0,
                                3 * 8 ** 4, max_targets=1)
            hits += bool(t)
        except SieveExhaustedError:
            pass
    assert hits >= 18  # >= 90% design point


def _digit_tuple_key(k, v):
    # reference key: base-2 digits beyond v, least significant first
    digits = []
    k //= 2 ** v
    while k:
        digits.append(k % 2)
        k //= 2
    return tuple(digits)


@given(st.data())
def test_race_key_matches_digit_tuple(data):
    # the odd parts of one race bucket of labels up to 96 bits, alpha = v
    v = data.draw(st.integers(0, 95))
    odd = st.integers(0, (1 << (95 - v)) - 1).map(lambda x: 2 * x + 1)
    parts = data.draw(st.lists(odd, min_size=2, max_size=8))
    keys = race_key(parts, 12)
    tuples = [_digit_tuple_key(k << v, v) for k in parts]
    for a, b in itertools.combinations(range(len(parts)), 2):
        ka, kb = bytes(keys[a]), bytes(keys[b])
        ta, tb = tuples[a], tuples[b]
        assert (ka < kb, ka == kb) == (ta < tb, ta == tb)
    order, depth = _race_bucket(parts, 12)
    assert order.tolist() == sorted(range(len(parts)), key=tuples.__getitem__)
    assert depth.tolist() == [_match_len(tuples[i], tuples[j])
                              for i, j in zip(order, order[1:])]


def _heap_pair_order(depths):
    """The heap sweep _pair_order replaces, kept as its reference: pop
    the deepest adjacent match (ties by left position) with lazy
    invalidation, and push the new neighbours' match, the minimum depth
    over their gap.  Returns the pairs in pop order and the leftover."""
    n = len(depths) + 1
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    nxt[-1] = -1
    alive = [True] * n
    heap = [(-d, i, i + 1) for i, d in enumerate(depths)]
    heapq.heapify(heap)
    pairs = []
    while heap:
        _, i, j = heapq.heappop(heap)
        if not (alive[i] and alive[j] and nxt[i] == j):
            continue
        alive[i] = alive[j] = False
        p, q = prev[i], nxt[j]
        if p >= 0:
            nxt[p] = q
        if q >= 0:
            prev[q] = p
            if p >= 0:
                heapq.heappush(heap, (-min(depths[p:q]), p, q))
        pairs.append((i, j))
    return pairs, [i for i in range(n) if alive[i]]


_DEPTHS = st.one_of(
    st.lists(st.integers(0, 6), max_size=60),
    st.lists(st.integers(0, 300), max_size=60),
    st.builds(lambda d, n: [d] * n, st.integers(0, 9), st.integers(0, 40)),
    st.integers(0, 40).map(lambda n: list(range(n))),
    st.integers(0, 40).map(lambda n: list(range(n, 0, -1))),
)


@given(_DEPTHS)
def test_pair_order_matches_heap_sweep(depths):
    left, right = _pair_order(depths)
    pairs, leftover = _heap_pair_order(depths)
    assert list(zip(left.tolist(), right.tolist())) == pairs
    paired = set(left.tolist()) | set(right.tolist())
    assert [i for i in range(len(depths) + 1) if i not in paired] == leftover


def _pair_sweep(entries, merge, put, stats):
    """One sweep over a sorted min-alpha bucket of (key, x) entries:
    merge adjacent pairs in _pair_order, count each in stats and put the
    result back.  Returns the leftover entry or None."""
    n = len(entries)
    stats.work += n
    left, right = _pair_order([_match_len(entries[i][0], entries[i + 1][0])
                               for i in range(n - 1)])
    lone = np.ones(n, dtype=bool)
    lone[left] = lone[right] = False
    for i, j in zip(left.tolist(), right.tolist()):
        stats.combines += 1
        stats.work += 1
        put(merge(entries[i][1], entries[j][1]))
    return next((entries[i] for i in np.flatnonzero(lone)), None)


def _pairing_race(items, place, merge, stats):
    """The greedy bucket loop on callbacks: place(x) returns (alpha, key,
    x) or None when x leaves the race; the minimum-alpha bucket is
    stable-sorted by key and swept, each merge(x, y) goes back through
    place, and same-alpha results carry into the next sweep."""
    buckets = defaultdict(list)

    def put(x):
        placed = place(x)
        if placed is not None:
            alpha, key, x = placed
            buckets[alpha].append((key, x))

    for x in items:
        put(x)
    while buckets:
        v = min(buckets)
        group = buckets.pop(v)
        while len(group) >= 2:
            group.sort(key=itemgetter(0))
            lone = _pair_sweep(group, merge, put, stats)
            group = buckets.pop(v, []) + ([lone] if lone is not None else [])


def _reference_race(labels, rng):
    """The race on the greedy sieve's bucket loop, run on callbacks, with
    string keys, the binary digits beyond alpha least significant first:
    the object path the columnar cancellation_race replaces."""
    stats = SieveStats()
    best = 0

    def place(k):
        nonlocal best
        if k == 0:
            return None
        v = alpha_radix(k, 2)
        best = max(best, v)
        return v, bin(k >> v)[:1:-1], k

    def merge(k, l):
        return k + l if rng.random() < 0.5 else abs(k - l)

    _pairing_race(labels, place, merge, stats)
    return best, stats


def _assert_races_agree(labels, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    best, st = cancellation_race(list(labels), rng)
    ref_best, ref_st = _reference_race(list(labels), ref_rng)
    assert (best, st.combines) == (ref_best, ref_st.combines)
    assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 300), st.integers(2, 300),
       st.integers(1, 300), st.floats(0, 0.3))
def test_cancellation_race_matches_string_key_race(seed, width, count,
                                                   distinct, zeros):
    # widths 1-300 bits; duplicates from a pool of `distinct` labels, and
    # a share of zero labels
    gen = np.random.default_rng(seed)
    pool = _random_labels(gen, min(distinct, count), width)
    labels = [pool[i] for i in gen.integers(0, len(pool), size=count)]
    labels = [0 if u < zeros else k
              for k, u in zip(labels, gen.random(count))]
    _assert_races_agree(labels, seed + 1)


def test_cancellation_race_matches_string_key_race_at_3_8():
    labels = _random_labels(np.random.default_rng(3), 3 ** 8, 96)
    _assert_races_agree(labels, 4)


def test_cancellation_race_trivial_budget():
    rng = np.random.default_rng(5)
    best, st = cancellation_race([0b1010, 0b0110], rng)
    assert 0 <= best <= 96
    assert st.combines <= 2


def test_cancellation_race_pinned_record():
    # 729 labels of 96 bits: best alpha, combines, work and the generator
    # state after the race are pinned
    rng = np.random.default_rng(12)
    best, st = cancellation_race(_random_labels(rng, 729, 96), rng)
    assert (best, st.combines, st.work) == (35, 709, 2144)
    assert rng.random() == 0.6834520517859066


def test_cancellation_race_deterministic():
    labels = list(np.random.default_rng(6).integers(1, 1 << 60, size=81))
    labels = [int(x) for x in labels]
    b1, _ = cancellation_race(list(labels), np.random.default_rng(7))
    b2, _ = cancellation_race(list(labels), np.random.default_rng(7))
    assert b1 == b2


def test_run_radix_recovery_r2_parity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = int(rng.integers(0, 1 << 10))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 10), s), rng=rng)
        res, _ = run_radix_recovery(be, 2, 10)
        assert res == s % 2


def test_run_radix_recovery_r3():
    rng = np.random.default_rng(9)
    ok = trials = 0
    for _ in range(40):
        s = int(rng.integers(0, 3 ** 6))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(3 ** 6), s), rng=rng)
        try:
            res, _ = run_radix_recovery(be, 3, 6)
        except SieveExhaustedError:
            continue
        trials += 1
        ok += res == s % 3
    assert trials >= 38 and ok / trials >= 0.95


def test_radix_levels_sized_by_demand(monkeypatch):
    # scale 1: every level n = 1..8 runs greedy passes until it holds the
    # copies tomography needs (at most 4 * want), and reports one
    # SieveStats summed over its passes; at n = 1 every nonzero label is
    # a target, so that level combines nothing
    need = tomography_copies_needed(3)
    held, passes = [], []
    real_sieve, real_tomo = greedy.greedy_sieve, greedy.tomography_mod_r

    def sieve(*args, **kwargs):
        out = real_sieve(*args, **kwargs)
        passes.append(out[1])
        return out

    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    monkeypatch.setattr(greedy, "tomography_mod_r",
                        lambda qs, r: held.append(len(qs)) or real_tomo(qs, r))
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(10):
            s = int(rng.integers(0, 3 ** n))
            be = PhaseBackend(make_reflection_oracle(GroupCtx(3 ** n), s),
                              rng=rng)
            passes.clear()
            digit, stats = run_radix_recovery(be, 3, n)
            assert digit == s % 3
            assert stats.combines == sum(p.combines for p in passes)
            assert (stats.combines > 0) == (n > 1)
            assert stats.work == sum(p.work for p in passes)
    assert len(held) == 80
    assert need <= min(held) and max(held) <= 4 * need


def test_radix_recovery_first_attempt_succeeds():
    rng = np.random.default_rng(12)
    attempts = []
    for _ in range(20):
        s = int(rng.integers(0, 3 ** 8))
        got, rep = recover_slope_radix(
            make_reflection_oracle(GroupCtx(3 ** 8), s), 3, 8, rng=rng)
        assert got == s
        attempts.append(rep.attempts)
    assert attempts.count(1) >= 18


def test_radix_level_exhausts_after_max_passes(monkeypatch):
    # one target per pass never reaches the 31 copies tomography needs
    calls = []

    def one_target(backend, obj, target, budget, max_targets=None):
        calls.append(max_targets)
        return [None], SieveStats(combines=1)

    monkeypatch.setattr(greedy, "greedy_sieve", one_target)
    with pytest.raises(SieveExhaustedError):
        run_radix_recovery(backend(27, 5), 3, 3)
    cap = 4 * tomography_copies_needed(3)
    assert calls == [cap - k for k in range(MAX_PASSES)]


def test_run_radix_recovery_n1():
    rng = np.random.default_rng(10)
    for s in (0, 1, 2):
        be = PhaseBackend(make_reflection_oracle(GroupCtx(3), s), rng=rng)
        res, _ = run_radix_recovery(be, 3, 1)
        assert res == s


def test_default_budget_monotone():
    assert default_radix_budget(2, 8) < default_radix_budget(2, 16)
    assert default_radix_budget(3, 6) > 100
