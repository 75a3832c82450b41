"""Greedy radix sieve: objective functions, suffix pairing, the
cancellation race, and residue recovery."""

import hashlib
import heapq
import itertools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhsieve import greedy
from dhsieve.errors import (
    BackendMismatchError,
    QubitConsumedError,
    SieveExhaustedError,
)
from dhsieve.greedy import (
    Objective,
    _pair_order,
    _race_bucket,
    cancellation_race,
    greedy_sieve,
    list_size,
    race_key,
    run_radix_recovery,
)
from dhsieve.group import AbelianGroupSpec, GroupCtx, int_dtype, uniform
from dhsieve.oracle import HidingOracle, make_reflection_oracle
from dhsieve.phase import (
    READOUT_DELTA,
    PhaseBackend,
    PhaseList,
    PhaseQubit,
    Readout,
    combine,
    negate_label,
    sample_batch,
    tomography_mod_r,
)
from dhsieve.recover import recover_slope_radix
from dhsieve.staged import MAX_PASSES, SieveStats


def backend(N, s, seed=0):
    return PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                        rng=np.random.default_rng(seed))


def plan_steps(orders):
    """Each coordinate's step moduli, in read order, from the chain plan
    of a group of the given orders."""
    orders = tuple(orders)
    plan = greedy.chain_plan(orders)
    return [[len(offsets) for i, _, offsets, _, _ in plan if i == j]
            for j in range(len(orders))]


def alpha_radix(k, r):
    """Number of factors of r in k, except alpha(0) = 0: the valuation
    the race once called per label, kept as the reference race's."""
    if k == 0:
        return 0
    a = 0
    while k % r == 0:
        k //= r
        a += 1
    return a


def test_alpha_radix_frozen():
    assert alpha_radix(12, 2) == 2
    assert alpha_radix(0, 2) == 0
    assert alpha_radix(54, 3) == 3  # 54 = 2 * 3^3


@given(st.integers(1, 10 ** 9), st.sampled_from([2, 3, 5]))
def test_alpha_radix_valuation(k, r):
    a = alpha_radix(k, r)
    assert k % r ** a == 0 and (k // r ** a) % r != 0


def _match_len(k1, k2):
    m = 0
    for a, b in zip(k1, k2):
        if a != b:
            break
        m += 1
    return m


def _key_tuples(keys):
    """The entries of a key matrix: each row without the -1 that closes
    it."""
    rows = keys.tolist()
    assert all(row[-1] == -1 for row in rows)
    return [tuple(row[:-1]) for row in rows]


@dataclass
class _ReferenceObjective:
    """The residue-row rule Objective computes on arrays, one label at a
    time, kept as its reference: label k (an int, or a tuple on an
    abelian group) reads as the row k[columns[i]] mod moduli[i]."""

    columns: tuple
    moduli: tuple

    @property
    def target(self):
        return len(self.moduli) - 1

    def row(self, label):
        k = label if isinstance(label, tuple) else (label,)
        return [k[c] % m for c, m in zip(self.columns, self.moduli)]

    def alpha(self, label):
        return next((i for i, v in enumerate(self.row(label)) if v),
                    len(self.moduli))

    def needs_flip(self, label):
        a = self.alpha(label)
        return a < len(self.moduli) and 2 * self.row(label)[a] > self.moduli[a]

    def key(self, label):
        return tuple(self.row(label)[self.alpha(label):self.target])


def _case(columns, moduli):
    """(Objective, its scalar reference) on the same row."""
    return Objective(columns, moduli), _ReferenceObjective(tuple(columns),
                                                           tuple(moduli))


def _level(r, n):
    """The objective of one radix level on Z/r^n, run_radix_recovery's."""
    return Objective([0] * n, [r ** i for i in range(1, n + 1)])


def test_alpha_abelian_frozen():
    # Z5 + Z7 read in order: alpha is the first nonzero coordinate, 2
    # for zero; (4, 0) and (0, 5) lie past half their order and flip
    obj, ref = _case((0, 1), (5, 7))
    rows = [(2, 3), (0, 3), (1, 0), (4, 0), (0, 5), (0, 0)]
    flip, alpha = obj.score(np.array(rows))
    assert flip.tolist() == [False, False, False, True, True, False]
    assert alpha.tolist() == [0, 1, 0, 0, 1, 2] and obj.target == 1
    assert [ref.alpha(k) for k in rows] == alpha.tolist()


def test_objective_canonicalization():
    flip, alpha = _level(3, 4).score(np.array([9, 18]))
    assert flip.tolist() == [False, True]   # leading digit 1, 2 -> negate
    assert alpha.tolist() == [2, 2]
    flip, _ = Objective((0, 1), (16, 9)).score(np.array([(12, 3), (4, 8)]))
    assert flip.tolist() == [True, False]


@pytest.mark.parametrize("shape", [(0,), (0, 2)])
def test_objective_on_no_labels(shape):
    # an empty label array, one column (D_N) or (0, rank), scores and
    # keys to empty results that keep the row's width
    obj = Objective([0, 0] if len(shape) == 1 else [1, 0], [3, 9])
    labels = np.zeros(shape, np.int64)
    flip, alpha = obj.score(labels)
    assert flip.shape == alpha.shape == (0,)
    assert obj.keys(labels, 0).shape == (0, 2)


def test_objective_key_orders_by_low_digits():
    obj = _level(2, 5)
    # 0b0101 and 0b1101 share two low bits beyond alpha=0
    key1, key2, key3 = _key_tuples(obj.keys(np.array([0b0101, 0b1101,
                                                      0b0011]), 0))
    assert key1[:2] == key2[:2]
    assert key1[:2] != key3[:2]


def _assert_objective_matches_reference(obj, ref, labels):
    """score on the labels, and keys on each alpha below the target,
    against the scalar rule, keys typed as the labels."""
    ks = labels.tolist()
    ks = [tuple(k) for k in ks] if labels.ndim == 2 else ks
    flip, alpha = obj.score(labels)
    assert flip.tolist() == [ref.needs_flip(k) for k in ks]
    assert alpha.tolist() == [ref.alpha(k) for k in ks]
    for v in set(alpha.tolist()) - {obj.target, obj.target + 1}:
        same = alpha == v
        keys = obj.keys(labels[same], v)
        assert keys.dtype == labels.dtype
        assert _key_tuples(keys) == [ref.key(k) for k, a in
                                     zip(ks, alpha.tolist()) if a == v]


@given(st.data())
def test_radix_objective_matches_reference(data):
    # a radix level on Z/r^n, r = 2..10: int64 labels, and object labels
    # past 2^63; composite radices too, whose valuation a gcd with a
    # power of r does not give.  Labels are r^a m mod r^n, so every
    # alpha, the target and zero turn up
    r, wide = data.draw(st.integers(2, 10)), data.draw(st.booleans())
    top = max(n for n in range(1, 63) if r ** n < 1 << 62)
    n = data.draw(st.integers(top + 3, top + 9) if wide
                  else st.integers(1, top))
    N = r ** n
    ks = data.draw(st.lists(st.builds(lambda a, m: r ** a * m % N,
                                      st.integers(0, n), st.integers(0, N)),
                            min_size=1, max_size=12))
    assert (N > 1 << 63) == wide and (wide or N < 1 << 62)
    obj, ref = _case([0] * n, [r ** i for i in range(1, n + 1)])
    _assert_objective_matches_reference(
        obj, ref, np.array(ks, dtype=int_dtype(N)))


def _assert_coordinate_objective(data, orders):
    """An abelian group's objective in a drawn coordinate order, on rows
    drawn as the group types them, zero rows included."""
    perm = data.draw(st.permutations(range(len(orders))))
    A = AbelianGroupSpec(orders)
    rows = data.draw(st.lists(st.tuples(*(
        st.one_of(st.just(0), st.integers(0, n - 1)) for n in orders)),
        min_size=1, max_size=12))
    _assert_objective_matches_reference(
        *_case(perm, [orders[i] for i in perm]),
        np.array(rows, dtype=A.modulus.dtype).reshape(len(rows), A.rank))


@given(st.data())
def test_coordinate_objective_matches_reference(data):
    _assert_coordinate_objective(
        data, data.draw(st.sampled_from([(16, 9), (5, 7, 4)])))


@given(st.data())
def test_coordinate_objective_past_int64_matches_reference(data):
    # an order of 2^63, whose labels are object, and one just below 2^62,
    # whose int64 leads double without overflow
    _assert_coordinate_objective(
        data, data.draw(st.sampled_from([(3, 1 << 63),
                                         ((1 << 62) - 57, 7)])))


def test_coordinate_objective_past_int64_pinned():
    # Z3 + Z/2^63 read coordinate 1 first: the label (1, 2^63 - 5) leads
    # with a value past half its order, so it flips to (2, 5), whose key
    # is its lead; a lead of exactly 2^62 is half the order and keeps its
    # sign, one more flips, in exact object arithmetic
    obj = Objective((1, 0), (1 << 63, 3))
    labels = np.array([(1, (1 << 63) - 5), (1, 1 << 62), (1, (1 << 62) + 1),
                       (1, 0)], dtype=object)
    flip, alpha = obj.score(labels)
    assert flip.tolist() == [True, False, True, False]
    assert alpha.tolist() == [0, 0, 0, 1]
    assert _key_tuples(obj.keys(np.array([(2, 5)], dtype=object), 0)) \
        == [(5,)]
    # the same half-way line at an int64 order of 2^61
    obj = Objective((1, 0), (1 << 61, 3))
    flip, _ = obj.score(np.array([(1, 1 << 60), (1, (1 << 60) + 1)],
                                 dtype=np.int64))
    assert flip.tolist() == [False, True]


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


def _collector(ctx, batches, k=None):
    """A readout for greedy_sieve that keeps each batch of targets it is
    handed, as (label, classical) pairs, draws one uniform per copy from
    the backend as an observation would, and decides, with the count of
    targets held, once k or more are held (never when k is None)."""
    def readout(targets):
        labels, classical = targets.take()
        targets.backend.rng.random(len(labels))
        batches.append([(ctx.reduce(x), c) for x, c in
                        zip(labels.tolist(), classical.tolist())])
        held = sum(map(len, batches))
        return held if k is not None and held >= k else None
    return readout


def _sieve_outcome(sieve, *args):
    """(value, stats, leftovers) of a sieve call, or (None, the stats the
    SieveExhaustedError carries, None) when it ran dry."""
    try:
        return sieve(*args)
    except SieveExhaustedError as err:
        return None, err.stats, None


def test_greedy_sieve_budget_validation():
    obj = _level(2, 4)
    with pytest.raises(ValueError):
        greedy_sieve(backend(16, 5), obj, 1, len)


def test_greedy_sieve_no_deadlock_tiny_budget():
    # a readout that decides at its first target; two labels a pass may
    # yield none, and the sieve then raises after MAX_PASSES passes: it
    # never hangs
    be = backend(16, 5, seed=1)
    value, _, _ = _sieve_outcome(greedy_sieve, be, _level(2, 4), 2, len)
    assert value is None or value >= 1
    assert be.oracle.queries <= 2 * MAX_PASSES


def test_greedy_sieve_targets_and_stats():
    # a readout that never decides: every target is 2^9, and the sieve
    # raises after MAX_PASSES passes of its budget
    obj = _level(2, 10)
    be = backend(1 << 10, 345, seed=2)
    batches = []
    with pytest.raises(SieveExhaustedError):
        greedy_sieve(be, obj, 1024, _collector(be.oracle.ctx, batches))
    held = [x for batch in batches for x in batch]
    assert held and held == [(1 << 9, False)] * len(held)
    assert be.oracle.queries == 1024 * MAX_PASSES


def test_greedy_sieve_pinned_record():
    # pinned record; r = 3 exercises the flips and the stop: the readout
    # decides at its 4th target, and the first sweep to reach the top
    # alpha places 29 at once (measured), all its merges made; the sieve
    # stops there
    obj = _level(3, 6)
    be = backend(3 ** 6, 100, seed=11)
    batches = []
    value, st, _ = greedy_sieve(be, obj, 300, _collector(be.oracle.ctx,
                                                         batches, 4))
    assert batches == [[(243, False)] * 29] and value == 29
    assert (st.combines, st.work, be.oracle.queries) == (107, 321, 300)
    assert be.rng.random() == 0.39895892552071144


def test_greedy_sieve_pinned_record_undecided(monkeypatch):
    # one pass whose readout never decides, and draws nothing: it empties
    # its buckets, and the whole record, and the generator state after
    # it, are pinned (measured): 52 targets in 7 batches from 218
    # combines, and work 662, the 444 entries its sweeps held plus its 218
    # merges; the sieve raises there, with that record
    monkeypatch.setattr(greedy, "MAX_PASSES", 1)
    obj = _level(3, 6)
    be = backend(3 ** 6, 100, seed=11)
    kept = []
    with pytest.raises(SieveExhaustedError) as err:
        greedy_sieve(be, obj, 300, kept.append)
    st = err.value.stats
    assert [len(t) for t in kept] == [29, 6, 8, 2, 3, 2, 2]
    assert np.concatenate([t.labels for t in kept]).tolist() == [243] * 52
    assert (st.combines, st.work, be.oracle.queries) == (218, 662, 300)
    assert be.rng.random() == 0.8106908479800631


def test_greedy_sieve_exhausts_holding_its_singles(monkeypatch):
    # a readout that never decides: the sieve places a fresh pass of its
    # budget only when no bucket is left to sweep, and raises after
    # MAX_PASSES of them, so it makes MAX_PASSES * budget queries.  An
    # entry left alone in its bucket stays there, and the bucket waits
    # for the next pass, which places only its own sample, after it: the
    # bucket's next sweep keys the lone entry first; a pass leaves at
    # most one per alpha below the target.  The lone entries waiting at
    # each fresh pass, read off the sieve's buckets as the pass is
    # sampled, pinned (measured)
    obj = _level(3, 6)
    be = backend(3 ** 6, 100, seed=11)
    waiting, events, lone, keyed = [], [], {}, []
    real_sample, real_score = greedy.sample_batch, obj.score
    real_keys = obj.keys

    def sample(backend, count):
        buckets = sys._getframe(1).f_locals["buckets"]
        chunks = [(a, labels) for a, bucket in buckets.items()
                  for labels, _ in bucket]
        assert sorted(a for a, _ in chunks) == sorted(buckets)
        assert all(a < obj.target and len(labels) == 1
                   for a, labels in chunks)
        lone.update((a, labels.tolist()[0]) for a, labels in chunks)
        waiting.append(len(chunks))
        out = real_sample(backend, count)
        events.append(("sample", out.labels.copy()))
        return out

    def score(labels):
        events.append(("place", labels.copy()))
        return real_score(labels)

    def keys(labels, alpha):
        if alpha in lone:
            keyed.append(lone.pop(alpha))
            assert labels.tolist()[0] == keyed[-1]
        return real_keys(labels, alpha)

    monkeypatch.setattr(greedy, "sample_batch", sample)
    obj.score, obj.keys = score, keys
    with pytest.raises(SieveExhaustedError) as err:
        greedy_sieve(be, obj, 300, lambda targets: None)
    assert be.oracle.queries == MAX_PASSES * 300
    fresh = [(events[i][1], events[i + 1][1]) for i, (what, _) in
             enumerate(events) if what == "sample"]
    assert len(fresh) == MAX_PASSES
    assert all(placed.tolist() == sampled.tolist()
               for sampled, placed in fresh)
    assert waiting == [0, 4, 2, 3, 5, 2, 3, 4, 3, 5, 5, 4, 2, 4, 2, 2]
    assert err.value.stats.combines == 3569
    assert len(keyed) > 10


def _held(state):
    """The (label, classical) pairs a Carried state holds: its buckets by
    alpha, each in order."""
    chunks = [chunk for a in sorted(state.buckets)
              for chunk in state.buckets[a]]
    return [(k, c) for labels, classical in chunks
            for k, c in zip(labels.tolist(), classical.tolist())]


def test_greedy_sieve_places_carried_labels_first(monkeypatch):
    # a first call on 3^6 places one given pass under the first level
    # (targets 243 u): 486 = 2 * 243 flips to its target 243 and 0
    # drops, and a readout that decides on those targets leaves the rest
    # bucketed by alpha, 162 = 2 * 81 and 728 = -1 flipped to 567 and 1.
    # The carried labels go first in a call under a prefix of that row:
    # the second level (targets 81 u) reads the carried 81 and 567
    # before any sample or combine, and leaves [1, 1, 3, 9] bucketed by
    # alpha, in placement order; at the row k mod 3, mod 9 the carried 9
    # scores zero and drops, and 3 is the target
    be = backend(3 ** 6, 100, seed=11)
    labels = np.array([243, 81, 1, 486, 0, 162, 9, 728, 3], dtype=np.int64)
    passes = []

    def sample(backend, count):
        passes.append(count)
        return PhaseList(labels.copy(), np.arange(9) % 2 == 1, backend)

    monkeypatch.setattr(greedy, "sample_batch", sample)
    batches = []
    value, _, first = greedy_sieve(be, _level(3, 6), 300,
                                   _collector(be.oracle.ctx, batches, 1))
    assert value == 2 and batches == [[(243, False), (243, True)]]
    batches = []
    value, st, left = greedy_sieve(be, _level(3, 5), 300,
                                   _collector(be.oracle.ctx, batches, 1),
                                   first)
    assert value == 2 and batches == [[(81, True), (567, True)]]
    assert _held(left) == [(1, False), (1, True), (3, False), (9, False)]
    assert (st.combines, passes) == (0, [300])
    with pytest.raises(QubitConsumedError):
        greedy_sieve(be, _level(3, 5), 300, len, first)
    batches = []
    value, _, last = greedy_sieve(be, _level(3, 2), 300,
                                  _collector(be.oracle.ctx, batches, 1), left)
    assert value == 1 and batches == [[(3, False)]]
    assert _held(last) == [(1, False), (1, True)] and passes == [300]
    # a state of another backend is refused before anything is drawn
    other = backend(3 ** 6, 100, seed=11)
    with pytest.raises(BackendMismatchError):
        greedy_sieve(other, _level(3, 1), 300, len, last)
    assert not last.consumed and other.oracle.queries == 0
    assert (other.rng.bit_generator.state
            == backend(3 ** 6, 100, seed=11).rng.bit_generator.state)


def test_greedy_sieve_carries_the_entries_it_holds(monkeypatch):
    # on 3^3 at the first level (targets 9 u), a pass of 1, 3 and 12
    # buckets 1 alone at alpha 0 and 3, 12 at alpha 1: the sweep of
    # alpha 0 holds 1, and the sweep of alpha 1 merges 3 - 12 = -9 (every
    # coin the minus branch), oriented to the target 9, which decides.
    # The call returns with 1 still held, and carries it bucketed at
    # alpha 0, as the per-qubit reference does
    passes = []

    def sample(backend, count):
        passes.append(count)
        return PhaseList(np.array([1, 3, 12]), np.zeros(3, bool), backend)

    monkeypatch.setattr(greedy, "sample_batch", sample)
    monkeypatch.setitem(globals(), "sample_batch", sample)

    def make():
        return PhaseBackend(make_reflection_oracle(GroupCtx(27), 5),
                            rng=np.random.default_rng(2), coin_bias=0.0)

    batches, ref_batches = [], []
    value, st, left = greedy_sieve(make(), _level(3, 3), 4,
                                   _collector(GroupCtx(27), batches, 1))
    _, _, want = _reference_sieve(make(), _case([0] * 3, [3, 9, 27])[1], 4,
                                  _collector(GroupCtx(27), ref_batches, 1))
    assert value == 1 and batches == ref_batches == [[(9, False)]]
    assert (st.combines, passes) == (1, [4, 4])
    assert _held(left) == [(q.label, q.classical) for q in want] == [
        (1, False)]
    assert list(left.buckets) == [0]


def _reference_sieve(backend, ref, budget, readout, carried=()):
    """The per-qubit greedy loop greedy_sieve runs on arrays, kept as its
    reference: every qubit is a PhaseQubit, oriented by negate_label and
    scored by the scalar rule ref when it is placed: a zero label drops,
    a target is held, anything else is ranked; each merge is one combine,
    placed as soon as it is made.  The carried qubits are placed first,
    and a fresh pass of budget qubits only when the buckets are empty,
    after the qubits left alone in their buckets.  The targets of each
    placement (the carried qubits, a pass, a sweep once its merges are
    placed) go to readout as one PhaseList.  Returns (the readout's
    value, stats, the qubits left: the buckets by alpha, each with the
    qubits held alone in it first); raises SieveExhaustedError when the
    buckets are empty after greedy.MAX_PASSES passes."""
    stats = SieveStats()
    batch, buckets, held = [], defaultdict(list), []

    def place(q):
        alpha = ref.alpha(q.label)
        if alpha > ref.target:
            return
        if ref.needs_flip(q.label):
            q = negate_label(q)
        if alpha == ref.target:
            batch.append(q)
        else:
            buckets[alpha].append((ref.key(q.label), q))

    def place_all(qubits):
        for q in qubits:
            place(q)
        if not batch:
            return None
        for q in batch:
            q._consume()
        targets = PhaseList(np.array([q.label for q in batch], dtype=object),
                            np.array([q.classical for q in batch]), backend)
        batch.clear()
        return readout(targets)

    value, passes = place_all(carried), 0
    while value is None:
        if not buckets:
            if passes == greedy.MAX_PASSES:
                raise SieveExhaustedError("undecided", stats)
            passes += 1
            labels, classical = sample_batch(backend, budget).take()
            value = place_all([q for _, q in held] + [
                PhaseQubit(backend.oracle.ctx.reduce(k), backend, c)
                for k, c in zip(labels.tolist(), classical.tolist())])
            held = []
            continue
        v = min(buckets)
        group = buckets.pop(v)
        if len(group) < 2:
            held.append((v, group[0][1]))
            continue
        group.sort(key=itemgetter(0))
        stats.work += len(group)
        pairs, _ = _pair_order([_match_len(a[0], b[0])
                                for a, b in zip(group, group[1:])])
        merges = []
        for i, j in pairs.tolist():
            stats.combines += 1
            stats.work += 1
            merges.append(combine(group[i][1], group[j][1]))
        value = place_all(merges)
        lone = np.ones(len(group), dtype=bool)
        lone[pairs] = False
        if lone.any():
            buckets[v].append(group[np.flatnonzero(lone)[0]])
    for v, q in reversed(held):
        buckets[v].insert(0, (None, q))
    return value, stats, [q for a in sorted(buckets) for _, q in buckets[a]]


def _radix_case(r, n, t):
    """(objective, reference) whose targets are the nonzero labels
    divisible by r^t on Z/r^n: the row k mod r, ..., mod r^t, mod r^n
    (at t = n - 1 a radix level's)."""
    return _case([0] * (t + 1), [r ** i for i in range(1, t + 1)] + [r ** n])


def _coordinate_case(orders, perm):
    """The same for labels supported on coordinate perm[-1] alone, the
    target of the abelian solver."""
    return _case(perm, [orders[i] for i in perm])


def _assert_sieves_agree(ctx, case, seed, budget, k, coin_bias=0.5,
                         corrupted=False):
    """greedy_sieve against _reference_sieve on twin backends, each with a
    _collector readout that decides at k targets, both capped at 2 passes:
    the same batches of target labels and classical flags, value,
    combines, work, queries and next generator draw.  A sieve that
    decided carries its leftovers, the same labels and flags in the same
    order, into a second sieve that never decides, under the row without
    its last entry, and the two agree again.  Returns whether the readout
    decided."""
    obj, ref = case
    s = ctx.reduce(ctx.random_elements(np.random.default_rng(seed), 1)
                   .tolist()[0])

    def make():
        o = make_reflection_oracle(ctx, s)
        if corrupted:
            o = HidingOracle(ctx, s, None, corruption_rate=Fraction(1, 4))
        return PhaseBackend(o, rng=np.random.default_rng(seed),
                            coin_bias=coin_bias)

    be, twin = make(), make()
    got_carried, want_carried = None, ()
    for call in range(2):
        got_batches, want_batches = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy, "MAX_PASSES", 2)
            want, want_st, want_left = _sieve_outcome(
                _reference_sieve, twin, ref, budget,
                _collector(ctx, want_batches, None if call else k),
                want_carried)
            got, st, left = _sieve_outcome(
                greedy_sieve, be, obj, budget,
                _collector(ctx, got_batches, None if call else k),
                got_carried)
        assert got == want and got_batches == want_batches
        assert (st.combines, st.work) == (want_st.combines, want_st.work)
        assert be.oracle.queries == twin.oracle.queries
        assert be.rng.random() == twin.rng.random()
        if call == 0:
            # a sieve that runs dry has sampled both its passes
            decided = got is not None
            assert be.oracle.queries in (
                (budget, 2 * budget) if decided else (2 * budget,))
        if got is None:
            break
        held = [(ctx.reduce(k), c) for k, c in _held(left)]
        assert held == [(ctx.reduce(q.label), q.classical) for q in want_left]
        got_carried, want_carried = left, want_left
        obj, ref = _case(ref.columns[:-1], ref.moduli[:-1])
    return decided


_COORDINATE_CASES = [(orders, perm)
                     for orders in ((16, 9), (5, 7), (4, 4, 3))
                     for perm in itertools.permutations(range(len(orders)))]


# (group, case, budget, k, coin_bias, corrupted); a sieve never holds its
# budget of targets, and every case with k below the budget decides at
# some seed (checked below)
_SIEVE_TABLE = [
    (GroupCtx(2 ** 10), _radix_case(2, 10, 9), 300, 300, 0.5, False),
    (GroupCtx(2 ** 10), _radix_case(2, 10, 6), 300, 7, 0.5, False),
    (GroupCtx(3 ** 6), _radix_case(3, 6, 5), 300, 300, 0.5, False),
    (GroupCtx(3 ** 6), _radix_case(3, 6, 4), 300, 9, 0.3, False),
    (GroupCtx(3 ** 6), _radix_case(3, 6, 4), 300, 300, 0.5, True),
    (GroupCtx(3 ** 6), _radix_case(3, 6, 4), 300, 6, 0.5, True),
    (GroupCtx(5 ** 4), _radix_case(5, 4, 3), 120, 120, 0.5, False),
    (GroupCtx(5 ** 4), _radix_case(5, 4, 2), 120, 5, 0.3, True),
    (GroupCtx(4 ** 5), _radix_case(4, 5, 4), 300, 300, 0.5, False),
    (GroupCtx(6 ** 4), _radix_case(6, 4, 3), 300, 8, 0.3, True),
    (GroupCtx(3 ** 40), _radix_case(3, 40, 4), 300, 300, 0.5, False),
    (GroupCtx(3 ** 40), _radix_case(3, 40, 5), 300, 3, 0.5, True),
    (AbelianGroupSpec((16, 9)), _coordinate_case((16, 9), (0, 1)), 300,
     300, 0.5, False),
    (AbelianGroupSpec((16, 9)), _coordinate_case((16, 9), (1, 0)), 300, 40,
     0.3, True),
    (AbelianGroupSpec((4, 4, 3)), _coordinate_case((4, 4, 3), (2, 0, 1)),
     200, 200, 0.3, True),
    (AbelianGroupSpec((4, 4, 3)), _coordinate_case((4, 4, 3), (0, 1, 2)),
     200, 8, 0.5, False),
]


@pytest.mark.parametrize("row", range(len(_SIEVE_TABLE)))
def test_greedy_sieve_matches_reference_table(row):
    ctx, case, budget, k, coin_bias, corrupted = _SIEVE_TABLE[row]
    decided = [_assert_sieves_agree(ctx, case, seed, budget, k, coin_bias,
                                    corrupted) for seed in range(4)]
    assert any(decided) == (k < budget)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_greedy_sieve_matches_reference(data):
    # both objectives: radix r in {2, 3, 4, 5, 6} up to 3^40, every coordinate
    # case; readouts that decide early or never, honest and biased coins,
    # corrupted oracles
    if data.draw(st.booleans()):
        r = data.draw(st.sampled_from([2, 3, 4, 5, 6]))
        n = data.draw(st.sampled_from([2, 4, 6, 9, 40]))
        ctx = GroupCtx(r ** n)
        case = _radix_case(r, n, data.draw(st.integers(1, min(n - 1, 5))))
    else:
        orders, perm = data.draw(st.sampled_from(_COORDINATE_CASES))
        ctx, case = AbelianGroupSpec(orders), _coordinate_case(orders, perm)
    budget = data.draw(st.integers(2, 200))
    _assert_sieves_agree(
        ctx, case, data.draw(st.integers(0, 2 ** 32)), budget,
        data.draw(st.one_of(st.just(budget), st.integers(1, 12))),
        data.draw(st.sampled_from([0.5, 0.3])), data.draw(st.booleans()))


@pytest.mark.parametrize("k", [1, 4, 124])
def test_greedy_sieve_stops_at_the_kth_target(k, monkeypatch):
    # the sieve stops after the batch that holds the k-th target: the
    # sweep that placed it draws all its coins, and none after it; the
    # generator state there, and the combines made, are the per-qubit
    # loop's, and fewer than a pass that never decides makes
    def make():
        return backend(3 ** 8, 4321, seed=1)

    monkeypatch.setattr(greedy, "MAX_PASSES", 1)
    ctx, (obj, ref) = GroupCtx(3 ** 8), _radix_case(3, 8, 7)
    be, twin, full = make(), make(), make()
    got_batches, want_batches = [], []
    want, want_st, _ = _reference_sieve(twin, ref, 1944,
                                        _collector(ctx, want_batches, k))
    got, st, _ = greedy_sieve(be, obj, 1944, _collector(ctx, got_batches, k))
    held = list(itertools.accumulate(map(len, got_batches)))
    assert got == want == held[-1] >= k > ([0] + held)[-2]
    assert got_batches == want_batches
    assert (st.combines, st.work) == (want_st.combines, want_st.work)
    assert be.rng.bit_generator.state == twin.rng.bit_generator.state
    _, full_st, _ = _sieve_outcome(greedy_sieve, full, obj, 1944,
                                   _collector(ctx, []))
    assert st.combines < full_st.combines


def test_greedy_sieve_stops_in_the_first_placement():
    # at 3^3 sampled labels already hit the target: the readout decides
    # on the sample's targets, before any combine
    be = backend(3 ** 3, 7, seed=5)
    batches = []
    value, st, _ = greedy_sieve(be, _level(3, 3), 200,
                                _collector(be.oracle.ctx, batches, 3))
    assert len(batches) == 1 and value == len(batches[0]) >= 3
    assert {label for label, _ in batches[0]} == {9}
    assert (st.combines, be.oracle.queries) == (0, 200)


@pytest.mark.parametrize("r, n, t, budget", [(2, 10, 9, 300), (3, 6, 5, 300),
                                             (5, 4, 3, 120)])
def test_greedy_sieve_matches_callback_loop(r, n, t, budget):
    # the same targets, stats and generator state as the per-qubit loop,
    # which places every qubit through a callback
    for seed in range(6):
        _assert_sieves_agree(GroupCtx(r ** n), _radix_case(r, n, t),
                             100 + seed, budget, budget)


def test_greedy_quasilinear_work(monkeypatch):
    monkeypatch.setattr(greedy, "MAX_PASSES", 1)
    obj = _level(2, 16)
    budget = 4096
    be = backend(1 << 16, 54321, seed=3)
    _, st, _ = _sieve_outcome(greedy_sieve, be, obj, budget,
                              lambda targets: None)
    assert st.work <= 40 * budget * math.log2(budget)


def test_greedy_hit_rate_large_budget(monkeypatch):
    # moderately sized version of the designed operating point: one pass
    # decides
    monkeypatch.setattr(greedy, "MAX_PASSES", 1)
    hits = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = int(rng.integers(0, 1 << 16))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 16), s), rng=rng)
        obj = _level(2, 16)
        value, _, _ = _sieve_outcome(greedy_sieve, be, obj, 3 * 8 ** 4, len)
        hits += value is not None
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


def _assert_pair_order_matches_heap(depths):
    pairs, lone = _pair_order(depths)
    want, leftover = _heap_pair_order(depths)
    assert list(map(tuple, pairs.tolist())) == want
    paired = set(pairs.ravel().tolist())
    assert [i for i in range(len(depths) + 1) if i not in paired] == leftover
    assert [lone] == leftover if leftover else lone == -1


@given(_DEPTHS)
def test_pair_order_matches_heap_sweep(depths):
    _assert_pair_order_matches_heap(depths)


def _recorded_depths(monkeypatch, run):
    """The depth arrays _pair_order is given while run() sweeps."""
    seen = []

    def spy(depths):
        seen.append(np.array(depths))
        return real(depths)

    real = greedy._pair_order
    monkeypatch.setattr(greedy, "_pair_order", spy)
    run()
    monkeypatch.setattr(greedy, "_pair_order", real)
    return seen


def _depth_table(name, monkeypatch):
    if name == "race-3^8":
        # every bucket of one 3^8 race of 96-bit labels
        labels = uniform(np.random.default_rng(3), 1 << 96, 3 ** 8).tolist()
        return _recorded_depths(monkeypatch, lambda: cancellation_race(
            labels, np.random.default_rng(4)))
    if name == "radix-sweeps":
        # every sweep of a radix recovery at 3^8 and of one 2^16 level
        return _recorded_depths(monkeypatch, lambda: (
            recover_slope_radix(make_reflection_oracle(GroupCtx(3 ** 8), 100),
                                3, 8, rng=5),
            run_radix_recovery(backend(1 << 16, 77, seed=6), 2, 16)))
    if name == "equal-runs":
        return ([[d] * n for d in (0, 3, 96) for n in (1, 2, 999, 1000)]
                + [([5] * 7 + [2]) * 50, [4] * 300 + [0] + [4] * 301,
                   ([6] * 5 + [6, 1]) * 40 + [6] * 9])
    # deep nests: mountains, valleys and nested sawtooths
    up = list(range(400))
    return [up + up[::-1], up[::-1] + up, up[::-1] + [400] + up,
            [d for k in range(1, 40) for d in range(k)],
            [d for k in range(1, 40) for d in range(k, 0, -1)],
            [min(i, 999 - i) % 17 + 3 * (i % 5 == 0) for i in range(1000)]]


@pytest.mark.parametrize("name", ["race-3^8", "radix-sweeps", "equal-runs",
                                  "deep-nests"])
def test_pair_order_matches_heap_sweep_on_real_depths(name, monkeypatch):
    table = _depth_table(name, monkeypatch)
    assert table
    if name == "race-3^8":
        assert max(map(len, table)) >= 3000
    for depths in table:
        _assert_pair_order_matches_heap(depths)


def _pair_sweep(entries, merge, put, stats):
    """One sweep over a sorted min-alpha bucket of (key, x) entries:
    merge adjacent pairs in _pair_order, count each in stats and put the
    result back.  Returns the leftover entry or None."""
    n = len(entries)
    stats.work += n
    pairs, _ = _pair_order([_match_len(entries[i][0], entries[i + 1][0])
                            for i in range(n - 1)])
    lone = np.ones(n, dtype=bool)
    lone[pairs] = False
    for i, j in pairs.tolist():
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
    pool = uniform(gen, 1 << width, min(distinct, count)).tolist()
    labels = [pool[i] for i in gen.integers(0, len(pool), size=count)]
    labels = [0 if u < zeros else k
              for k, u in zip(labels, gen.random(count))]
    _assert_races_agree(labels, seed + 1)


def test_cancellation_race_matches_string_key_race_at_3_8():
    labels = uniform(np.random.default_rng(3), 1 << 96, 3 ** 8).tolist()
    _assert_races_agree(labels, 4)


def test_cancellation_race_trivial_budget():
    rng = np.random.default_rng(5)
    best, st = cancellation_race([0b1010, 0b0110], rng)
    assert 0 <= best <= 96
    assert st.combines <= 2


def test_cancellation_race_reads_numpy_labels():
    # an int64 array races like the list of its values: the same record,
    # and the generator left where the list leaves it
    labels = [6, 10, 3, 5, 12, 40, 7, 9, 96, 3]
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    best, st = cancellation_race(np.array(labels, dtype=np.int64), a)
    want, want_st = cancellation_race(labels, b)
    assert (best, st.combines, st.work) == (want, want_st.combines,
                                            want_st.work)
    assert a.random() == b.random()


def test_cancellation_race_refuses_bad_labels_before_drawing():
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        cancellation_race([6, -10, 3], rng)
    with pytest.raises(TypeError):
        cancellation_race([6, 10.0, 3], rng)
    assert rng.bit_generator.state == state


def test_race_labels_pinned():
    # 96-bit race labels: one rng.bytes call cut into 12-byte slices, the
    # values and the generator state after them pinned
    rng = np.random.default_rng(3)
    assert uniform(rng, 1 << 96, 6).tolist() == [
        14216759653208556285774971640, 63483503547902663017174637829,
        3121517570735626694412338980, 34315851610361404744414056592,
        20978683982377948851527535074, 58199197931114613158116107846]
    assert rng.random() == 0.11367201992140341
    rng = np.random.default_rng(5)
    labels = uniform(rng, 1 << 96, 3 ** 8).tolist()
    assert (labels[0], labels[-1]) == (1794772972681969722740762024,
                                       38672696342910688517263134847)
    assert hashlib.sha256(repr(labels).encode()).hexdigest()[:16] == (
        "977d4f27790277ff")
    assert rng.random() == 0.263678066944407


def test_cancellation_race_pinned_record():
    # 729 labels of 96 bits: best alpha, combines, work and the generator
    # state after the race are pinned
    rng = np.random.default_rng(12)
    best, st = cancellation_race(uniform(rng, 1 << 96, 729).tolist(), rng)
    assert (best, st.combines, st.work) == (35, 709, 2144)
    assert rng.random() == 0.6834520517859066


def test_cancellation_race_deterministic():
    labels = list(np.random.default_rng(6).integers(1, 1 << 60, size=81))
    labels = [int(x) for x in labels]
    b1, _ = cancellation_race(list(labels), np.random.default_rng(7))
    b2, _ = cancellation_race(list(labels), np.random.default_rng(7))
    assert b1 == b2


def test_run_radix_recovery_r2_parity():
    # r = 2: the whole recursion over Z/2^10 reads every bit
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = int(rng.integers(0, 1 << 10))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 10), s), rng=rng)
        res, _ = run_radix_recovery(be, 2, 10)
        assert res == s


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
        ok += res == s
    assert trials >= 38 and ok / trials >= 0.95


@pytest.mark.parametrize("r, n", [(r, n) for r in range(2, 7)
                                  for n in range(1, 10) if r ** n <= 729])
def test_carried_labels_read_their_digit_exactly(r, n):
    # level i knows p = s mod r^i.  A label k of valuation exactly
    # n - 1 - i, observed at p + r^i t, turns by exactly u (d_i - t)/r
    # mod 1, u = k / r^(n-1-i) and d_i digit i of s: checked for every
    # secret, level, such label and reference, in integers (k (s - p -
    # r^i t) mod N is N/r times u (d_i - t) mod r) and on GroupCtx.turns.
    # On an honest oracle a carried read, copies of every such label in
    # turn handed to tomography_mod_r at q = r^i, returns d_i for every
    # (s, i) at r = 2, where each bit observed is certain; at r > 2 each
    # bit is a coin, and the readout's stopping rule misreads at most
    # READOUT_DELTA of the reads (1 of the 10,279 here, at 5^4)
    N, ctx = r ** n, GroupCtx(r ** n)
    misread = 0
    for s in range(N):
        be = backend(N, s, seed=s)
        for i in range(n):
            p, d = s % r ** i, s // r ** i % r
            u = np.arange(1, r ** (i + 1))
            u = np.repeat(u[u % r != 0], r)
            k, t = u * r ** (n - 1 - i), np.resize(np.arange(r), len(u))
            want = u * (d - t) % r
            assert (k * (s - p - r ** i * t) % N == N // r * want).all()
            assert ctx.turns(k, s, p + r ** i * t).tolist() == (
                want / r).tolist()
            copies = PhaseList(np.resize(k, 8 * r), np.zeros(8 * r, bool), be)
            readout = Readout([p + r ** i * t for t in range(r)])
            assert (readout.j, readout.q) == (0, r ** i)
            misread += tomography_mod_r(copies, readout) != d
    assert misread <= (0 if r == 2 else READOUT_DELTA * N * n)


_GROUPED = {(4, 6): [[4], [2, 3]], (2, 9): [[2], [3, 3]],
            (8, 3): [[4, 2], [3]], (2, 3, 5): [[2], [3], [5]],
            (4, 9): [[4], [3, 3]], (81,): [[27, 3]], (64,): [[4, 4, 2, 2]]}


@pytest.mark.parametrize("orders", list(_GROUPED))
def test_chain_targets_read_their_digit_exactly(orders, monkeypatch):
    # the chain reads each order's prime factors, ascending, in the steps
    # its plan groups them into (one modulus p a step, p a prime or a
    # product of a few).  The step that reads p from coordinate j,
    # q the product of j's steps already read and s0 = s_j mod q, has
    # targets (n_j/(q p)) u on coordinate j, u != 0 mod p, and zero on the
    # coordinates after it; observed at s_j = s0 + q t and at s_i on the
    # coordinates i < j, such a label turns by exactly u (d - t)/p mod 1,
    # d = (s_j // q) mod p.  Checked for every secret, step, target of the
    # step's objective (over all labels of the group) and reference, in
    # integers and on AbelianGroupSpec.turns; and the honest carried read
    # returns every coordinate
    A = AbelianGroupSpec(orders)
    steps = plan_steps(orders)
    assert steps == _GROUPED[orders]
    labels = np.array(list(itertools.product(*map(range, orders))))
    seen = []
    real_sieve, real_tomo = greedy.greedy_sieve, greedy.tomography_mod_r

    def sieve(backend, obj, budget, readout, carried):
        seen.append([obj])
        return real_sieve(backend, obj, budget, readout, carried)

    def tomo(targets, readout):
        seen[-1][1:] = [readout]
        return real_tomo(targets, readout)

    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    monkeypatch.setattr(greedy, "tomography_mod_r", tomo)
    for s in itertools.product(*map(range, orders)):
        seen.clear()
        be = PhaseBackend(make_reflection_oracle(A, s),
                          rng=np.random.default_rng([A.size, *s]))
        got, _ = greedy.run_chain(be)
        assert tuple(got) == s
        assert [(readout.M, readout.j) for _, readout in seen] == [
            (p, j) for j, chain in enumerate(steps) for p in chain]
        for obj, readout in seen:
            p, q, j = readout.M, readout.q, readout.j
            n, s0 = orders[j], s[j] % q
            d = s[j] // q % p
            assert readout.value == d
            _, alpha = obj.score(labels.copy())
            k = labels[alpha == obj.target]
            assert len(k) and not k[:, j + 1:].any()
            assert not (k[:, j] % (n // (q * p))).any()
            u = k[:, j] // (n // (q * p))
            for t, point in enumerate(map(tuple, readout.points.tolist())):
                assert point == (*s[:j], s0 + q * t, *[0] * (A.rank - j - 1))
                want = u * (d - t) % p
                assert (k * (np.array(s) - point) % orders).tolist() == [
                    [0] * j + [n // p * w] + [0] * (A.rank - j - 1)
                    for w in want]
                assert A.turns(k, s, point).tolist() == (want / p).tolist()


def _groups(digits, steps):
    """Split digits, in order, into runs whose products are steps, or
    None when steps do not cut digits that way."""
    runs, it = [], iter(digits)
    for m in steps:
        run, prod = [], 1
        while prod < m:
            d = next(it, None)
            if d is None:
                return None
            run.append(d)
            prod *= d
        if prod != m:
            return None
        runs.append(run)
    return runs if next(it, None) is None else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 4093]),
                         max_size=8), min_size=1, max_size=3))
def test_chain_steps_group_consecutive_digits(coordinates):
    # on the group whose orders are the products of the given digits,
    # each coordinate's steps multiply to its order and cut its prime
    # digits, ascending, into runs of one prime; no step passes
    # _MAX_PRIME = 4096, none reads all of a last coordinate of two digits
    # or more, and a prime's steps never grow along the read order (the
    # caps shrink with the unread order).  test_chain_steps_pinned pins
    # which merges the caps make
    coordinates = [sorted(c) for c in coordinates]
    steps = plan_steps(map(math.prod, coordinates))
    assert len(steps) == len(coordinates)
    for digits, chain in zip(coordinates, steps):
        runs = _groups(digits, chain)
        assert runs is not None and math.prod(chain) == math.prod(digits)
        for m, run in zip(chain, runs):
            assert len(set(run)) == 1
            assert m <= greedy._MAX_PRIME == 4096
        for (m, run), (m2, run2) in zip(zip(chain, runs),
                                        zip(chain[1:], runs[1:])):
            assert run[0] != run2[0] or m2 <= m
    last = [c for c in coordinates if c][-1:]
    if last and len(last[0]) > 1:
        assert len([c for c in steps if c][-1]) > 1


def test_chain_steps_pinned():
    # the benchmark's groups and the edges: a prime past the cap is
    # refused, 2s pair only on the first coordinate read, and n = 1,
    # n = 0 and an order-1 coordinate read as before
    def cs(*orders):
        return plan_steps(orders)
    assert cs(3 ** 8) == [[27, 27, 9]]
    assert cs(16, 9) == [[4, 4], [3, 3]]
    assert cs(1 << 20) == [[4] * 3 + [2] * 14]
    assert cs(1 << 12) == [[4, 4] + [2] * 8]
    assert cs(3, 1 << 12) == [[3], [2] * 12]
    assert cs(1, 16) == [[], [4, 4]]
    assert cs(5 ** 4) == [[25, 5, 5]] and cs(7 ** 3) == [[49, 7]]
    assert cs(4093 ** 2) == [[4093, 4093]]
    with pytest.raises(ValueError, match="prime factors <= 4096"):
        cs(4099)
    assert cs(61 ** 3) == [[61, 61, 61]]
    assert cs(3) == [[3]] and cs(2, 9) == [[2], [3, 3]]
    assert cs(1) == [[]] and cs() == []
    assert cs(1, 1) == [[], []]
    assert cs(5000, 3) == [[4, 2, 25, 25], [3]]


@pytest.mark.parametrize("r, n, steps", [
    (4, 8, [[4] * 3 + [2] * 10]), (6, 4, [[4, 4, 27, 3]]),
    (10, 3, [[4, 2, 25, 5]]), (8, 3, [[4, 4] + [2] * 5]),
    (12, 3, [[4, 4, 2, 2, 9, 3]])])
def test_composite_orders_plan_as_their_prime_twins(r, n, steps,
                                                    monkeypatch):
    # a plan is a function of the orders alone, so the radix recursion
    # over D_{r^n} reads the prime digits of r^n, grouped as on any
    # other group of that order (4^8 exactly as 2^16), one readout a
    # step, and returns the secret
    assert plan_steps((r ** n,)) == steps
    reads, real = [], greedy.tomography_mod_r

    def tomo(targets, readout):
        if not reads or reads[-1] is not readout:
            reads.append(readout)
        return real(targets, readout)

    monkeypatch.setattr(greedy, "tomography_mod_r", tomo)
    s = r ** n * 5 // 7
    got, _ = run_radix_recovery(backend(r ** n, s, seed=r), r, n)
    assert got == s and [x.M for x in reads] == steps[0]


@pytest.mark.parametrize("orders, steps", [
    ((1 << 66,), [[4] * 5 + [2] * 56]),
    ((3, 10 ** 22), [[3], [2] * 22 + [125] * 6 + [25, 5, 5]])])
def test_chain_points_past_int64_stay_exact(orders, steps, monkeypatch):
    # past 62 bits the chain's reference points are Python ints: with
    # every step's digit read off the secret (no sieve), each step's
    # readout sits at exactly s mod q + q t on its coordinate, with the
    # coordinates read before at their values and q an int, also where
    # the known part of s passes 2^63 (the secret's digits are all
    # nonzero); the chain returns the secret
    assert plan_steps(orders) == steps
    shifted = len(orders) > 1
    s = tuple(n - 1 - n // 7 for n in orders)
    ctx = AbelianGroupSpec(orders) if shifted else GroupCtx(orders[0])
    o = HidingOracle(ctx, s if shifted else s[0], lambda e: None)
    seen = []

    class Recorded(Readout):
        def __init__(self, points):
            super().__init__(points)
            seen.append(self)

    def sieve(backend, obj, budget, readout, carried):
        r = seen[-1]
        return s[r.j] // r.q % r.M, SieveStats(), None

    monkeypatch.setattr(greedy, "Readout", Recorded)
    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    got, _ = greedy.run_chain(PhaseBackend(o, rng=1))
    assert tuple(got) == s
    assert len(seen) == sum(map(len, steps))
    known = [0] * len(orders)
    for r in seen:
        rows = r.points.reshape(r.M, -1).tolist()
        assert type(r.q) is int and {type(v) for v in sum(rows, [])} == {int}
        assert rows == [[*known[:r.j], known[r.j] + r.q * t,
                         *known[r.j + 1:]] for t in range(r.M)]
        known[r.j] += s[r.j] // r.q % r.M * r.q
    assert tuple(known) == s


def test_radix_levels_sized_by_demand(monkeypatch):
    # one greedy_sieve call per step of the plan of 3^n, on one
    # carried state: the step reading modulus m after q = the product of
    # the steps before sieves for valuation target len(steps) - 1 - i,
    # samples passes of list_size(3^n / q), and hands each batch of
    # targets to tomography_mod_r with its own readout at s mod q + q t,
    # t < m; the last batch decides it and the call returns, and the next
    # step places that call's leftovers first; the recursion reports one
    # SieveStats summed over its calls.  At the last step every nonzero
    # label is a target, so that call combines nothing (above it a step
    # may still decide on its sample's targets)
    reads, calls, combined = [], [], set()
    real_sieve, real_tomo = greedy.greedy_sieve, greedy.tomography_mod_r

    def sieve(backend, obj, budget, readout, carried):
        out = real_sieve(backend, obj, budget, readout, carried)
        calls.append((obj.target, budget, carried, out))
        return out

    def tomo(targets, readout):
        value = real_tomo(targets, readout)
        reads.append((readout, readout.q, value))
        return value

    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    monkeypatch.setattr(greedy, "tomography_mod_r", tomo)
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        (steps,) = plan_steps((3 ** n,))
        assert math.prod(steps) == 3 ** n
        qs = [math.prod(steps[:i]) for i in range(len(steps))]
        for _ in range(10):
            s = int(rng.integers(0, 3 ** n))
            be = PhaseBackend(make_reflection_oracle(GroupCtx(3 ** n), s),
                              rng=rng)
            reads.clear()
            calls.clear()
            got, stats = run_radix_recovery(be, 3, n)
            assert got == s
            assert [(t, b) for t, b, _, _ in calls] == [
                (len(steps) - 1 - i, list_size(3 ** n // q))
                for i, q in enumerate(qs)]
            assert calls[0][2] is None
            assert all(c is out[2] for (_, _, c, _), (*_, out) in
                       zip(calls[1:], calls))
            assert [out[0] for *_, out in calls] == [
                s // q % m for q, m in zip(qs, steps)]
            for q, m in zip(qs, steps):
                level = [x for x in reads if x[1] == q]
                assert len({id(x[0]) for x in level}) == 1
                assert level[0][0].points.tolist() == [
                    s % q + q * t for t in range(m)]
                assert [x[2] for x in level] == [None] * (len(level) - 1) + [
                    s // q % m]
            assert stats.combines == sum(out[1].combines for *_, out in calls)
            assert stats.work == sum(out[1].work for *_, out in calls)
            assert calls[-1][3][1].combines == 0
            if stats.combines:
                combined.add(n)
    assert combined == set(range(2, 9))


def test_chain_scores_only_what_it_samples_or_merges(monkeypatch):
    # run_chain over 3^8 keeps its carried state placed: Objective.score
    # runs only on a fresh pass's sample or on one sweep's merges, exactly
    # those labels, never on the labels a step carries in or an entry
    # left alone in its bucket, though later steps do carry labels.  A
    # call under an objective whose row is no prefix of the state's (in
    # columns and moduli) raises ValueError before anything is drawn, and
    # leaves the state to a prefix call
    events, carried = [], []
    real_score, real_sieve = Objective.score, greedy.greedy_sieve
    real_sample, real_combine = greedy.sample_batch, greedy.combine_pairs

    def score(self, labels):
        events.append(("score", len(labels), self.target))
        return real_score(self, labels)

    def sample(backend, count):
        events.append(("sample", count))
        return real_sample(backend, count)

    def combine(backend, labels, classical, pairs):
        events.append(("merge", pairs.shape[1]))
        return real_combine(backend, labels, classical, pairs)

    def sieve(backend, obj, budget, readout, state):
        carried.append(len(_held(state)) if state else 0)
        return real_sieve(backend, obj, budget, readout, state)

    monkeypatch.setattr(Objective, "score", score)
    monkeypatch.setattr(greedy, "sample_batch", sample)
    monkeypatch.setattr(greedy, "combine_pairs", combine)
    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    N = 3 ** 8
    for i in range(10):
        s = int(np.random.default_rng([N, i]).integers(0, N))
        events.clear()
        got, stats = run_radix_recovery(backend(N, s, seed=i), 3, 8)
        assert got == s
        for before, (what, *after) in zip(events, events[1:]):
            if what == "score":
                assert before[0] in ("sample", "merge")
                assert after[0] == before[1]
        scored = sum(e[1] for e in events if e[0] == "score")
        merged = sum(e[1] for e in events if e[0] == "merge")
        sampled = sum(e[1] for e in events if e[0] == "sample")
        assert merged == stats.combines
        assert scored == sampled + merged
    assert sum(carried[1:]) > 0
    be = backend(N, 4321, seed=1)
    _, _, state = real_sieve(be, _level(3, 8), 243, len)
    queries, draw = be.oracle.queries, be.rng.bit_generator.state
    for obj in (Objective([0] * 7, [3 ** i for i in range(2, 9)]),
                Objective([0] * 6 + [1], [3 ** i for i in range(1, 8)]),
                _level(3, 9)):
        with pytest.raises(ValueError):
            real_sieve(be, obj, 243, len, state)
        assert not state.consumed
    assert (be.oracle.queries, be.rng.bit_generator.state) == (queries, draw)
    real_sieve(be, _level(3, 7), 243, len, state)
    assert state.consumed


@pytest.mark.parametrize("n", [2, 3])
def test_radix_levels_at_r8_never_misread(n):
    # 500 recoveries of 8^n (secret default_rng([8, n, i]), generator
    # default_rng([8, n, i, 1])): a fixed 96 copies a level misread 3
    # first levels at n = 2 and 2 at n = 3; the stopping rule misreads no
    # digit of any level, and a recursion whose readout stays undecided
    # for MAX_PASSES passes raises (none does)
    N, exhausted = 8 ** n, 0
    for i in range(500):
        s = int(np.random.default_rng([8, n, i]).integers(0, N))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                          rng=np.random.default_rng([8, n, i, 1]))
        try:
            got, _ = run_radix_recovery(be, 8, n)
        except SieveExhaustedError:
            exhausted += 1
            continue
        assert got == s, i
    assert exhausted <= 2


@pytest.mark.parametrize("r, most", [(6, 65), (8, 80), (10, 95)])
def test_radix_levels_read_every_residue(r, most):
    # 200 recoveries of r^2 (secret default_rng([r, 2, i]), generator
    # default_rng([r, 2, i, 1])): copy j of a level is read at reference
    # p + r^i (j mod r), every residue in turn.  With references at 0 and
    # the odd multiples of N // 2r (plus 1 for even r) a first level alone
    # read a mean 79.8, 115.9 and 221.6 queries; every residue in turn
    # read 50.0, 62.6 and 75.9 for it, and the whole carried recursion,
    # both levels, reads 55.2, 76.5 and 92.9 (measured).  None misreads
    N, queries = r * r, 0
    for i in range(200):
        s = int(np.random.default_rng([r, 2, i]).integers(0, N))
        o = make_reflection_oracle(GroupCtx(N), s)
        be = PhaseBackend(o, rng=np.random.default_rng([r, 2, i, 1]))
        got, _ = run_radix_recovery(be, r, 2)
        assert got == s, i
        queries += o.queries
    assert queries / 200 <= most


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
    # a first step whose readout never decides: the plan of 5^3 reads
    # [25, 5], and the first step's one greedy_sieve call places
    # MAX_PASSES fresh passes of list_size(125) labels, then raises with
    # their stats, and the recursion reads no further step
    levels = []

    def undecided(targets, readout):
        levels.append((readout.q, readout.M))
        targets.take()

    monkeypatch.setattr(greedy, "tomography_mod_r", undecided)
    assert plan_steps((125,)) == [[25, 5]]
    be = backend(125, 5)
    with pytest.raises(SieveExhaustedError) as err:
        run_radix_recovery(be, 5, 3)
    assert be.oracle.queries == list_size(125) * MAX_PASSES
    assert set(levels) == {(1, 25)} and err.value.stats.combines > 0


def test_run_radix_recovery_n1():
    rng = np.random.default_rng(10)
    for s in (0, 1, 2):
        be = PhaseBackend(make_reflection_oracle(GroupCtx(3), s), rng=rng)
        res, _ = run_radix_recovery(be, 3, 1)
        assert res == s


def test_default_budget_monotone():
    # the default list size, list_size when no budget is given, grows
    # with the group: _LAWS laws of 3^sqrt(2 log_3 N) labels.  At 3^8 a
    # law is 3^sqrt(2 * 8) = 81 labels, so a pass samples 243
    assert list_size(2 ** 8) < list_size(2 ** 16)
    law = 3.0 ** math.sqrt(2 * math.log(3 ** 8, 3))
    assert list_size(3 ** 8) == math.ceil(greedy._LAWS * law) == 243


@pytest.mark.parametrize("r, top", [(2, 20), (3, 8), (5, 4)])
def test_list_size_holds_copies_within_pass_cap(r, top, monkeypatch):
    # the whole recursion reads s at every n up to top, one greedy_sieve
    # call per step of the plan of r^n: the step after the
    # steps of product q samples fresh passes of list_size(r^n / q)
    # labels only when its buckets are empty (the first step at least
    # once), and decides within MAX_PASSES of them
    calls = []
    real_sieve, real_sample = greedy.greedy_sieve, greedy.sample_batch

    def sieve(*args):
        calls.append([])
        return real_sieve(*args)

    def sample(backend, count):
        calls[-1].append(count)
        return real_sample(backend, count)

    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    monkeypatch.setattr(greedy, "sample_batch", sample)
    for n in range(1, top + 1):
        (steps,) = plan_steps((r ** n,))
        qs = [math.prod(steps[:i]) for i in range(len(steps))]
        for seed in range(4):
            s = (7919 * seed + 1) % r ** n
            calls.clear()
            got, _ = run_radix_recovery(backend(r ** n, s, seed), r, n)
            assert got == s
            assert len(calls) == len(steps) and calls[0]
            for q, sizes in zip(qs, calls):
                assert len(sizes) <= MAX_PASSES
                assert sizes == [list_size(r ** n // q)] * len(sizes)
