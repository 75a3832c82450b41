"""End-to-end secret recovery: power-of-two recursion, general N,
hidden substrings through spliced oracles, and abelian hidden shifts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dhsieve import greedy, recover
from dhsieve.errors import NoHiddenReflectionError, SieveExhaustedError
from dhsieve.greedy import list_size, run_radix_recovery
from dhsieve.group import (
    AbelianGroupSpec,
    GroupCtx,
    int_dtype,
    unit_for_odd_part,
)
from dhsieve.oracle import (
    ShiftPair,
    SubstringInstance,
    make_reflection_oracle,
    make_shift_pair,
    make_trivial_oracle,
    restrict_reflection,
    shift_to_dihedral,
    splice_substring,
)
from dhsieve.phase import PhaseBackend, PhaseList, Readout, tomography_mod_r
from dhsieve.recover import (
    RecoveryReport,
    recover_slope_general,
    recover_slope_power2,
    recover_slope_radix,
    solve_abelian_shift,
    solve_substring,
    verify_reflection,
)
from dhsieve.staged import MAX_PASSES, run_staged_parity


def plan_steps(orders):
    """Each coordinate's step moduli, in read order, from the chain plan
    of a group of the given orders."""
    plan = greedy.chain_plan(orders)
    return [[len(offsets) for i, _, offsets, _, _ in plan if i == j]
            for j in range(len(orders))]


def test_verify_reflection():
    o = make_reflection_oracle(GroupCtx(16), 9)
    assert verify_reflection(o, 9)
    assert not verify_reflection(o, 5)


def test_power2_exhaustive_n4():
    rng = np.random.default_rng(0)
    o_base = GroupCtx(16)
    for s in range(16):
        o = make_reflection_oracle(o_base, s)
        got, rep = recover_slope_power2(o, 4, rng=rng)
        assert got == s
        assert rep.queries == o.queries and rep.attempts >= 1


def test_power2_pinned_queries():
    # a change to any draw or layout of the sieve moves this count.
    # Passes times pass size (staged_config) at levels n = 10..2, one
    # label at D_2, and a verification pair: 128 + 80 + 64 + 2 * 64
    # + 8 * 32 + 2 * 32 + 32 + 16 + 16 + 1 + 2 = 787
    o = make_reflection_oracle(GroupCtx(1 << 10), 777)
    got, rep = recover_slope_power2(o, 10, rng=np.random.default_rng(3))
    assert got == 777 and rep.attempts == 1
    assert o.queries == rep.queries == 787


def test_power2_zero_and_n0():
    o = make_reflection_oracle(GroupCtx(1), 0)
    got, _ = recover_slope_power2(o, 0, rng=1)
    assert got == 0


def test_chain_over_a_trivial_group_reads_nothing():
    # D_1 by the radix chain (r = 2, n = 0) and Z1 + Z1 by the abelian
    # chain leave no digit to read: the chain returns zeros without
    # sampling, and the check's query pair is all the recovery costs
    o = make_reflection_oracle(GroupCtx(1), 0)
    assert recover_slope_radix(o, 2, 0, rng=1) == (
        0, RecoveryReport(queries=2, attempts=1))
    p = make_shift_pair(AbelianGroupSpec((1, 1)), (0, 0))
    assert solve_abelian_shift(p, rng=1) == (
        (0, 0), RecoveryReport(queries=2, attempts=1))


def test_power2_rejects_wrong_order():
    with pytest.raises(ValueError):
        recover_slope_power2(make_reflection_oracle(GroupCtx(12), 5), 4)


def test_injective_oracle_raises():
    o = make_trivial_oracle(GroupCtx(8))
    with pytest.raises(NoHiddenReflectionError):
        recover_slope_power2(o, 3, rng=2)


def _unshifted_pair(orders):
    # f and g have disjoint images, so no shift relates them
    return ShiftPair(AbelianGroupSpec(orders), (0,) * len(orders),
                     lambda a: ("f",) + a, lambda a: ("g",) + a)


@pytest.mark.parametrize("solve, cap", [
    (lambda: recover_slope_power2(make_trivial_oracle(GroupCtx(8)), 3,
                                  rng=2), 6),
    (lambda: recover_slope_general(make_trivial_oracle(GroupCtx(8)),
                                   rng=2), 6),
    (lambda: solve_abelian_shift(_unshifted_pair((8,)), rng=2), 6),
], ids=["power2", "general-2^a", "abelian-rank1"])
def test_retry_caps_on_injective_oracle(solve, cap, monkeypatch):
    # every attempt fails its check: the loop runs exactly its cap of
    # slope attempts, then raises
    calls = []
    real = recover._slope_attempt
    monkeypatch.setattr(recover, "_slope_attempt",
                        lambda o, rng: calls.append(o) or real(o, rng))
    with pytest.raises(NoHiddenReflectionError):
        solve()
    assert len(calls) == cap


def test_radix_recovery_r3():
    rng = np.random.default_rng(3)
    for _ in range(6):
        s = int(rng.integers(0, 27))
        o = make_reflection_oracle(GroupCtx(27), s)
        got, _ = recover_slope_radix(o, 3, 3, rng=rng)
        assert got == s


def test_numpy_radix_and_parity_past_int64(monkeypatch):
    # at N = 3^41 > 2^63, r^n in int64 wraps and N % r or N // r with an
    # int64 r overflows, so each entry point must read a numpy radix,
    # level count or parity as the Python int it stands for: numpy and
    # int arguments give the same answers
    N, s = 3 ** 41, 3 ** 40 + 7
    o = make_reflection_oracle(GroupCtx(N), s)
    p = s % 3
    for parity, r in ((p, 3), (p, np.int64(3)), (np.int64(p), 3)):
        sub = restrict_reflection(o, parity, r)
        assert sub.ctx.N == N // 3 and verify_reflection(sub, (s - p) // 3)
    labels = [(N // 3) * (1 + i % 2) for i in range(64)]
    for r in (3, np.int64(3)):
        copies = PhaseList(np.array(labels, dtype=int_dtype(N)),
                           np.zeros(len(labels), dtype=bool),
                           PhaseBackend(o, rng=np.random.default_rng(1)))
        assert tomography_mod_r(copies, Readout(range(r))) == p
    # the last digit, d_40 = 1, from labels of valuation 0 read against
    # p = s mod 3^40 = 7 at q = 3^40, which the readout's points name as
    # a Python int: q r = 3^41 wraps in int64 and uint64 alike
    copies = PhaseList(np.array([1, 2] * 32, dtype=int_dtype(N)),
                       np.zeros(64, dtype=bool),
                       PhaseBackend(o, rng=np.random.default_rng(1)))
    readout = Readout([7 + 3 ** 40 * t for t in range(3)])
    assert type(readout.q) is int and readout.q == 3 ** 40
    assert tomography_mod_r(copies, readout) == 1
    # a level on lists of 2 labels finds no target
    for r, n in ((3, 41), (np.int64(3), np.int64(41))):
        be = PhaseBackend(o, rng=np.random.default_rng(2))
        with pytest.raises(SieveExhaustedError):
            run_radix_recovery(be, r, n, budget=2)
    reached = []
    monkeypatch.setattr(recover, "_las_vegas",
                        lambda o, attempt, max_retries: reached.append(o))
    recover_slope_radix(o, np.int64(3), 41)
    recover_slope_radix(o, np.int64(3), np.int64(41))
    assert reached == [o, o]


def test_numpy_level_count_past_int64(monkeypatch):
    # at N = 2^70, 1 << np.int64(70) wraps in int64, so
    # recover_slope_power2 must read a numpy level count as the Python int
    # it stands for: numpy and int arguments both reach the retry loop
    o = make_reflection_oracle(GroupCtx(1 << 70), 12345)
    reached = []
    monkeypatch.setattr(recover, "_las_vegas",
                        lambda o, attempt, max_retries: reached.append(o))
    recover_slope_power2(o, 70)
    recover_slope_power2(o, np.int64(70))
    assert reached == [o, o]
    with pytest.raises(ValueError, match="not 2\\^n"):
        recover_slope_power2(o, np.int64(69))


@pytest.mark.parametrize("r, n", [(4, 3), (6, 3), (10, 2)])
def test_radix_recovery_composite(r, n):
    # composite radices: a level's targets are the labels divisible by
    # N / r, which a valuation read off gcd(k, r^j) misplaces (it raised
    # on every case here).  Every one of these 10 secrets
    # (default_rng([N, i])) verifies, and 100 of 100 at each (r, n),
    # since tomography_mod_r reads copy i at reference i mod r: not all
    # at 0 or r/2 mod r, where even radices read s mod r as -s mod r
    N = r ** n
    found = 0
    for i in range(10):
        s = int(np.random.default_rng([N, i]).integers(0, N))
        o = make_reflection_oracle(GroupCtx(N), s)
        try:
            got, _ = recover_slope_radix(
                o, r, n, rng=np.random.default_rng([N, i, 1]))
        except NoHiddenReflectionError:
            continue
        assert got == s
        found += 1
    assert found == 10


def test_general_agrees_with_power2():
    rng = np.random.default_rng(4)
    for s in (0, 7, 21, 31):
        o = make_reflection_oracle(GroupCtx(32), s)
        got, _ = recover_slope_general(o, rng=rng)
        assert got == s


def test_general_small_sweep_n45():
    rng = np.random.default_rng(5)
    for s in (0, 1, 13, 22, 44):
        o = make_reflection_oracle(GroupCtx(45), s)
        got, _ = recover_slope_general(o, rng=rng)
        assert got == s


@pytest.mark.parametrize("N, s, queries", [(360, 123, 999),
                                           (4095, 1000, 3842)])
def test_general_pinned_queries(N, s, queries):
    # a change to any draw of the sieve, or to the multiplier a round
    # picks, moves these counts.  One interval pass samples C_0 * 4^m
    # labels (192 at N = 360, 768 at N = 4095) and the answer costs one
    # verification pair: coarse passes + rounds x pass size + tail + 2.
    # N = 360 = 8 * 45 spends 2 coarse passes and 3 refinement rounds of
    # one pass reading s mod 45 = 33 (5 * 192), then the parity sieve
    # reads (s - 33)/45 = 2 over D_8 and D_4 in one pass each of
    # staged_config's 16 labels (m = 2 at n = 3 and 2), and over D_2 in 5
    # one-label draws: 960 + 16 + 16 + 5 + 2 = 999.  N = 4095 spends 1
    # coarse pass and 4 rounds: 5 * 768 + 2 = 3842.  N = 4095 stays at
    # least 10x below the 159,746 queries of a fixed C_0 * 8^m sample per
    # sieve call
    o = make_reflection_oracle(GroupCtx(N), s)
    got, rep = recover_slope_general(o, rng=np.random.default_rng(1))
    assert got == s and rep.attempts == 1
    assert o.queries == rep.queries == queries
    assert N != 4095 or queries <= 15974


@pytest.mark.parametrize("i, s, attempts, queries", [
    (0, 716, 1, 245), (1, 2981, 1, 245), (2, 2738, 1, 245), (3, 5147, 1, 245),
    (9, 1685, 1, 245), (5, 6362, 1, 342)])
def test_radix_pinned_queries(i, s, attempts, queries):
    # one greedy_sieve call per step of the plan of 3^8,
    # [[27, 27, 9]], so a change to the grouping rule, to the list-size
    # rule, or to when a step's readout decides moves these counts (r = 3,
    # n = 8; secrets from default_rng([3^8, i])).  The step with unread
    # order m (6561, 243, 9) samples passes of list_size(m) = 243, 97 and
    # 27 labels only when the labels carried from the steps before leave
    # its readout undecided, and the answer costs one verification pair.
    # Every step here decides on the first pass's 243 labels, 243 + 2 =
    # 245, except the second step of secret 6362, which samples one pass
    # of 97: 243 + 97 + 2 = 342 (measured pass sizes).  One digit per step
    # cost 260 for secrets 716 and 2738, whose last digit sampled a pass
    # of 15
    N = 3 ** 8
    assert plan_steps((N,)) == [[27, 27, 9]]
    assert int(np.random.default_rng([N, i]).integers(0, N)) == s
    o = make_reflection_oracle(GroupCtx(N), s)
    got, rep = recover_slope_radix(o, 3, 8, rng=np.random.default_rng([N, i, 1]))
    assert (got, rep.attempts, rep.queries) == (s, attempts, queries)
    assert o.queries == queries


@pytest.mark.parametrize("i, s, attempts, queries", [
    (0, (5, 7), 1, 84), (1, (1, 1), 1, 84), (2, (2, 6), 1, 84),
    (58, (15, 4), 1, 84), (8, (14, 2), 1, 84), (30, (2, 3), 1, 84),
    (16, (15, 8), 1, 111), (27, (14, 2), 1, 99)])
def test_abelian_pinned_queries(i, s, attempts, queries):
    # Z16 + Z9, secrets from default_rng([144, i]): one greedy_sieve call
    # per step of the group's plan, [4, 4] on Z16 (unread order 144) and
    # [3, 3] on Z9, on one carried sieve state.  The step with unread
    # order m (144, 36, 9, 3) samples passes of list_size(m) = 82, 50,
    # 27 and 15 labels only when the labels it carries leave its readout
    # undecided, and the answer costs one verification pair.  When only
    # the first step samples, that is 82 + 2 = 84; the third step of
    # secret (15, 8) samples one pass of 27, 82 + 27 + 2 = 111, and the
    # last of (14, 2) one of 15, 82 + 15 + 2 = 99 (measured).  One bit
    # per step cost 99 for (14, 2) at i = 8 and 111 for (2, 3)
    assert plan_steps((16, 9)) == [[4, 4], [3, 3]]
    gen = np.random.default_rng([144, i])
    assert tuple(int(gen.integers(0, n)) for n in (16, 9)) == s
    p = make_shift_pair(AbelianGroupSpec((16, 9)), s)
    got, rep = solve_abelian_shift(p, rng=np.random.default_rng([144, i, 1]))
    assert (got, rep.attempts, rep.queries) == (s, attempts, queries)


def test_abelian_z64_coordinate_first_attempts():
    # Z64 + Z3, secrets from default_rng([192, i]): the chain reads Z64 in
    # six bits, each readout stopping once its best residue leads by
    # ln(1 / READOUT_DELTA); a fixed 24 copies read the whole Z64
    # coordinate at once misread it in about 5% of recoveries (380 of 400
    # first attempts verified); at most one of these 200 may retry
    A, first = AbelianGroupSpec((64, 3)), 0
    for i in range(200):
        gen = np.random.default_rng([192, i])
        s = tuple(int(gen.integers(0, n)) for n in (64, 3))
        got, rep = solve_abelian_shift(
            make_shift_pair(A, s), rng=np.random.default_rng([192, i, 1]))
        assert got == s
        first += rep.attempts == 1
    assert first >= 199


_ABELIAN_GROUPS = [(16, 9), (8, 27), (5, 7, 4), (64, 3), (2, 2, 2, 2)]


@pytest.mark.parametrize("small", [False, True])
def test_coordinate_sieve_reads_exactly_its_copies(monkeypatch, small):
    # the chain's steps run in order on one carried sieve state: each
    # step's sieve places the labels the step before it left, samples
    # passes of list_size(unread order) labels only while its readout is
    # undecided and its buckets are empty, and hands every batch of
    # targets to the step's one readout, until it decides: the last batch
    # decides it, no pass follows, and the readout reads its copies up to
    # the deciding one.  The steps are the groups' plans, a few prime
    # digits a step.  Under the rule at most two passes decide every
    # step of the five groups, and a step after the first may take none;
    # with the rule patched to 16-label passes, 0 to 5 (measured; 0 to 4
    # on one prime digit a step, 0 to 6 when each coordinate was read
    # whole)
    steps, batches = [], []
    real_sieve, real_sample = greedy.greedy_sieve, greedy.sample_batch
    real_observe = Readout.observe
    size = (lambda order: 16) if small else list_size

    def sieve(backend, obj, budget, readout, carried):
        steps.append((budget, []))
        batches.clear()
        value, stats, left = real_sieve(backend, obj, budget, readout, carried)
        steps[-1] += (value, list(batches))
        return value, stats, left

    def sample(backend, count):
        steps[-1][1].append(count)
        return real_sample(backend, count)

    def observe(self, plist, labels):
        batches.append((self, self.read, len(plist)))
        return real_observe(self, plist, labels)

    monkeypatch.setattr(greedy, "greedy_sieve", sieve)
    monkeypatch.setattr(greedy, "sample_batch", sample)
    monkeypatch.setattr(greedy, "list_size", size)
    monkeypatch.setattr(Readout, "observe", observe)
    counts = set()
    for orders in _ABELIAN_GROUPS:
        A = AbelianGroupSpec(orders)
        o = shift_to_dihedral(make_shift_pair(A, (1,) * A.rank))
        chain = plan_steps(orders)
        # (unread order, digit of s = (1, ..., 1)) of every step
        want = [(math.prod(orders[j + 1:]) * math.prod(c[a:]), int(a == 0))
                for j, c in enumerate(chain) for a in range(len(c))]
        for seed in range(8):
            steps.clear()
            got, _ = greedy.run_chain(
                PhaseBackend(o, rng=np.random.default_rng([seed, 1])))
            assert got == [1] * A.rank
            assert [(b, v) for b, _, v, _ in steps] == [
                (size(m), d) for m, d in want]
            assert steps[0][1]
            for budget, passes, value, seen in steps:
                counts.add(len(passes))
                assert passes == [budget] * len(passes)
                readout = seen[0][0]
                assert {id(b[0]) for b in seen} == {id(readout)}
                assert readout.value == value
                # each batch starts where the one before ended, and the
                # last is read up to the deciding copy
                assert [b[1] for b in seen] == list(itertools.accumulate(
                    [0] + [b[2] for b in seen[:-1]]))
                assert seen[-1][1] < readout.read <= sum(b[2] for b in seen)
    if small:
        assert counts == set(range(6))
    else:
        assert counts == {0, 1, 2}


def test_coordinate_sieve_exhausts_after_max_passes(monkeypatch):
    # a chain step whose readout never decides: the first step's sieve
    # places MAX_PASSES fresh passes of list_size(144) labels, 144 the
    # whole group's order, all unread, then raises with their stats
    def undecided(self, plist, labels):
        plist.take()

    monkeypatch.setattr(Readout, "observe", undecided)
    A = AbelianGroupSpec((16, 9))
    o = shift_to_dihedral(make_shift_pair(A, (5, 7)))
    with pytest.raises(SieveExhaustedError) as err:
        greedy.run_chain(PhaseBackend(o, rng=np.random.default_rng(0)))
    assert o.queries == list_size(A.size) * MAX_PASSES
    assert err.value.stats.combines > 0


def test_carried_solvers_derive_no_oracle(monkeypatch, record_property):
    # recover_slope_radix and solve_abelian_shift read every digit and
    # coordinate on the caller's own oracle, so they call
    # restrict_reflection and with_label_automorphism zero times; and the
    # labels one sieve call leaves for the next never number more than
    # MAX_PASSES * list_size(N), the most MAX_PASSES fresh passes of the
    # largest list could place.  Peak carried over 20 secrets each
    # (recorded as peak_carried, measured): 158 of 3,888 at 3^8, 416 of
    # 6,688 at 2^16, 81 of 1,312 on Z16+Z9 and 76 of 1,296 on Z5+Z7+Z4
    # (79 and 78 when each coordinate was read whole)
    derived, peaks = [], {}
    for name in ("restrict_reflection", "with_label_automorphism"):
        monkeypatch.setattr(recover, name,
                            lambda *args, name=name: derived.append(name))

    def spy(real):
        def sieve(backend, obj, budget, readout, carried):
            value, stats, left = real(backend, obj, budget, readout, carried)
            held = sum(len(labels) for chunks in left.buckets.values()
                       for labels, _ in chunks)
            peaks[key] = max(peaks.get(key, 0), held)
            return value, stats, left
        return sieve

    monkeypatch.setattr(greedy, "greedy_sieve", spy(greedy.greedy_sieve))
    for r, n in ((3, 8), (2, 16)):
        key = N = r ** n
        for i in range(20):
            s = int(np.random.default_rng([N, i]).integers(0, N))
            o = make_reflection_oracle(GroupCtx(N), s)
            got, _ = recover_slope_radix(
                o, r, n, rng=np.random.default_rng([N, i, 1]))
            assert got == s
    for orders in ((16, 9), (5, 7, 4)):
        A = AbelianGroupSpec(orders)
        key = A.size
        for i in range(20):
            gen = np.random.default_rng([A.size, i])
            s = tuple(int(gen.integers(0, n)) for n in orders)
            got, _ = solve_abelian_shift(
                make_shift_pair(A, s),
                rng=np.random.default_rng([A.size, i, 1]))
            assert got == s
    assert derived == []
    record_property("peak_carried", peaks)
    for N, peak in peaks.items():
        assert 0 < peak <= MAX_PASSES * list_size(N), (N, peak)


@pytest.mark.parametrize("N", [3 << 10, 3 << 14, 45 << 8, 360, 720, 1000])
def test_general_with_power_of_two_factor(N):
    # N = 2^a M, M odd: the refinement reads s mod M and the parity
    # recursion reads the rest over the D_{2^a} that restricting to
    # <x^M, y x^(s mod M)> leaves.  A refinement over the whole slope
    # cannot read its 2-part (the multipliers are 1 mod 2^a): it
    # recovered 2, 0 and 8 of the first three N's 10 secrets in six
    # attempts.  At 360, 720 and 1000 the 2-part puts candidates M apart
    # k / 2^a turn apart under every multiplier, an alias that a
    # multiplier picked from the window width alone does not see
    for i in range(10):
        s = int(np.random.default_rng([N, i]).integers(0, N))
        o = make_reflection_oracle(GroupCtx(N), s)
        got, rep = recover_slope_general(
            o, rng=np.random.default_rng([N, i, 1]))
        assert got == s and rep.attempts == 1, (N, i)


def _pairs_within_band(N, u, cands, copies):
    # brute force over every pair: predicted turns (u^-1 c mod N) / N
    # closer (around the circle) than the band a round of copies cannot
    # split, sqrt(prune margin / (2 pi^2 copies)) turn
    w = int(N * math.sqrt(recover._PRUNE_LL / (2 * math.pi ** 2 * copies)))
    x = [pow(u, -1, N) * int(c) % N for c in cands]
    return sum(min((xi - xj) % N, (xj - xi) % N) <= w
               for i, xi in enumerate(x) for xj in x[i + 1:])


def _round_units(N):
    a = (N & -N).bit_length() - 1
    return {unit_for_odd_part(N, k)
            for k in range(math.ceil(math.log2(N)) + a)}


@pytest.mark.parametrize("N, lo, width, copies", [
    (45, 0, 23, 24),         # the first window at N = 45
    (255, 40, 30, 20),
    (360, 0, 181, 24),       # 2^3 * 45: the first window
    (360, 100, 30, 20),
    (720, 10, 30, 20),       # 2^4 * 45
    (1000, 0, 60, 20),       # 2^3 * 125
    (1000, 500, 200, 40),
    (4095, 1000, 32, 50),    # a window of 32 after a few rounds
    (4095, 100, 64, 50),
    (4095, -16, 32, 50),     # a window across 0
    (3 << 14, 7, 200, 24),   # M = 3: only two multipliers
])
def test_choose_unit_minimizes_pairs_within_the_band(N, lo, width, copies):
    # the chosen multiplier is a round unit (1 mod 2^a) and leaves no more
    # candidate pairs inside the band than any other round unit
    cands = np.arange(lo, lo + width) % N
    u = recover._choose_unit(N, np.sort(cands), copies)
    a = (N & -N).bit_length() - 1
    assert u in _round_units(N) and u % (1 << a) == 1 % (1 << a)
    best = min(_pairs_within_band(N, v, cands, copies)
               for v in _round_units(N))
    assert _pairs_within_band(N, u, cands, copies) == best


def test_choose_unit_band_at_fifty_copies():
    # the band is about 0.64 / sqrt(copies) turn: +-0.09 at 50 copies, so
    # turns 0.088 apart are one cluster and 0.092 apart are split, also
    # across the wrap at N.  Unit 1 already splits candidates 0.092 turn
    # apart, and comes first
    N = 4095
    assert _pairs_within_band(N, 1, [10, N - 10], 50) == 1
    assert recover._choose_unit(N, np.array([10, N - 10]), 50) != 1
    assert _pairs_within_band(N, 1, [0, 360], 50) == 1
    assert _pairs_within_band(N, 1, [0, 377], 50) == 0
    assert _pairs_within_band(N, 1, [0, 377], 25) == 1
    assert recover._choose_unit(N, np.array([0, 377, 754]), 50) == 1
    assert recover._choose_unit(N, np.array([0, 377, 754]), 25) != 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.sampled_from([3, 5, 9, 45, 63, 125, 255]),
       st.integers(2, 700), st.integers(12, 80), st.integers(0, 2 ** 32))
def test_choose_unit_is_deterministic_and_draws_nothing(a, M, size, copies,
                                                         seed):
    # any candidate set, scored whole or (past 256) through its fixed
    # sample: a round unit, 1 mod 2^a, the same one on a second call, and
    # neither numpy's global generator nor a live one moves
    N = M << a
    rng = np.random.default_rng(seed)
    cands = np.sort(rng.choice(N, size=min(size, N), replace=False))
    live = rng.bit_generator.state
    legacy = np.random.get_state()[1].copy()
    u = recover._choose_unit(N, cands, copies)
    assert u in _round_units(N) and u % (1 << a) == 1 % (1 << a)
    assert recover._choose_unit(N, cands.copy(), copies) == u
    assert rng.bit_generator.state == live
    assert np.array_equal(np.random.get_state()[1], legacy)


@pytest.mark.parametrize("N, count, step, copies", [
    (2 ** 33 + 1, 32, 123456789, 2),
    (2 ** 40 + 15, 32, 987654321, 12),
    (45 << 30, 8, 123456789, 50),      # 2^30 * 45
    (2 ** 31 - 1, 32, 987654321, 12),  # the widest N with int64 products
])
def test_choose_unit_scores_exact_turns_past_2_31(N, count, step, copies):
    # products u^-1 c reach N^2, past int64 once N >= 2^31: the chosen
    # unit is the first of the scored units with the fewest pairs under
    # the exact Python-int turns
    cands = np.sort((N // 3 + step * np.arange(count)) % N)
    a = (N & -N).bit_length() - 1
    units = [unit_for_odd_part(N, k)
             for k in range(math.ceil(math.log2(N)) + a)]
    if 1 in units[1:]:
        units = units[:units.index(1, 1)]
    pairs = [_pairs_within_band(N, u, cands, copies) for u in units]
    assert recover._choose_unit(N, cands, copies) == units[
        pairs.index(min(pairs))]


def _ref_choose_unit(N, cands, copies):
    # the multiplier choice as one search: every unit's sorted turns in
    # one flattened array, rows 2N apart, and the first row with the
    # fewest pairs
    a = (N & -N).bit_length() - 1
    units = [1]
    while len(units) < math.ceil(math.log2(N)) + a:
        u = unit_for_odd_part(N, len(units))
        if u == 1:
            break
        units.append(u)
    if len(cands) > recover._SCORED_CANDIDATES:
        golden = (math.sqrt(5) - 1) / 2
        cands = cands[(np.arange(recover._SCORED_CANDIDATES) * golden % 1.0
                       * len(cands)).astype(np.int64)]
    dtype = int_dtype(N * N)
    inv = np.array([pow(u, -1, N) for u in units], dtype=dtype)
    turns = np.sort(inv[:, None] * cands.astype(dtype) % N, axis=1)
    rows, n = turns.shape
    w = int(N * math.sqrt(recover._PRUNE_LL / (2 * math.pi ** 2 * copies)))
    flat = (turns + 2 * N * np.arange(rows)[:, None]).ravel()
    near = (np.searchsorted(flat, flat + w, side="right")
            - np.arange(rows * n) - 1)
    wrap = (np.repeat(n * np.arange(1, rows + 1), n)
            - np.searchsorted(flat, flat + N - w))
    return units[int(np.argmin((near + wrap).reshape(rows, n).sum(axis=1)))]


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(0, 12),
              st.sampled_from([3, 5, 9, 45, 63, 125, 255, 4095])),
    # odd parts past 2^31: the turns are object products
    st.tuples(st.integers(0, 3),
              st.sampled_from([2 ** 31 + 1, 3 ** 20, 2 ** 33 + 1, 5 ** 17]))),
    st.integers(0, 2 ** 62), st.integers(1, 1200), st.integers(1, 1 << 20),
    st.integers(2, 80))
# pairs exactly w apart across the wrap at N decide these two
@example((3, 45), 306, 19, 1, 12)
@example((0, 45), 7, 39, 4, 70)
def test_choose_unit_matches_the_flattened_search(aM, lo, width, stride,
                                                  copies):
    # windows of up to 1,200 candidates (past 256, the golden-ratio
    # sample is scored), on N up to 2^3 * 5^17: the unit scored on its own
    # turns is the one the flattened search returns
    a, M = aM
    N = M << a
    cands = np.unique((lo % N + stride * np.arange(width)) % N)
    assert recover._choose_unit(N, cands, copies) == _ref_choose_unit(
        N, cands, copies)


def _ref_substring_guesses(N):
    # the grid as a sweep: 0, then spacing N // 2 halved down to 1, each
    # level adding the points no coarser level held
    seen = {0}
    yield 0
    spacing = N // 2
    while spacing >= 1:
        for t in range(0, N, spacing):
            if t not in seen:
                seen.add(t)
                yield t
        spacing //= 2


def test_substring_guesses_match_the_sweep():
    for N in range(1, 3001):
        assert recover._substring_guesses(N) == list(
            _ref_substring_guesses(N)), N


def _count_calls(monkeypatch, name, fail_first=0):
    # wrap recover.<name>: record each call's first argument, and raise
    # SieveExhaustedError on the first fail_first calls
    calls, real = [], getattr(recover, name)

    def wrapped(*args):
        calls.append(args[0])
        if len(calls) <= fail_first:
            raise SieveExhaustedError("dry")
        return real(*args)

    monkeypatch.setattr(recover, name, wrapped)
    return calls


def test_exhausted_tail_ends_the_attempt(monkeypatch):
    # an exhausted power-of-two tail fails its attempt like any other
    # exhausted sieve, and the next attempt reads the odd part afresh
    refinements = _count_calls(monkeypatch, "_general_attempt")
    tails = _count_calls(monkeypatch, "_digit_recursion", fail_first=1)
    o = make_reflection_oracle(GroupCtx(360), 123)
    got, rep = recover_slope_general(o, rng=np.random.default_rng(1))
    assert got == 123 and rep.attempts == 2
    assert len(refinements) == 2 and len(tails) == 2


def test_general_exhausted_round_ends_the_attempt(monkeypatch):
    # a refinement round whose sieve runs dry ends its attempt, and the
    # Las Vegas loop retries, like every other exhausted sieve
    calls = []
    real = recover.interval_sieve

    def first_dry(backend, want):
        calls.append(want)
        if len(calls) == 1:
            raise SieveExhaustedError("dry")
        return real(backend, want)

    monkeypatch.setattr(recover, "interval_sieve", first_dry)
    o = make_reflection_oracle(GroupCtx(360), 123)
    got, rep = recover_slope_general(o, rng=np.random.default_rng(1))
    assert got == 123 and rep.attempts == 2


def test_substring_exact_guess_is_fast():
    # s = 0 is the first grid point: the zero-slope splice verifies
    # immediately
    inst = SubstringInstance(64, 0)
    got, rep = solve_substring(inst, rng=6)
    assert got == 0 and rep.attempts == 1


def test_substring_sweeps_grid_once(monkeypatch):
    # every guess fails: after the check's splice at guess 0, the splices
    # are the whole grid once, with one slope attempt each
    N = 48
    grid = recover._substring_guesses(N)
    assert grid[:3] == [0, 24, 12] and sorted(grid) == list(range(N))
    spliced, attempted = [], []
    real = recover.splice_substring

    def splice(inst, t):
        spliced.append((t, real(inst, t)))
        return spliced[-1][1]

    def fail(o, rng):
        attempted.append(o)
        raise SieveExhaustedError("no candidate")

    monkeypatch.setattr(recover, "splice_substring", splice)
    monkeypatch.setattr(recover, "_slope_attempt", fail)
    with pytest.raises(NoHiddenReflectionError):
        solve_substring(SubstringInstance(N, 31), rng=1)
    assert [t for t, _ in spliced] == [0] + grid
    assert len(attempted) == len(spliced) - 1
    assert all(a is o for a, (_, o) in zip(attempted, spliced[1:]))


def test_substring_attempts_count_guesses(monkeypatch):
    # a solved instance splices the check's oracle at guess 0, then a
    # prefix of the grid, one guess per reported attempt
    spliced = []
    real = recover.splice_substring
    monkeypatch.setattr(recover, "splice_substring",
                        lambda inst, t: spliced.append(t) or real(inst, t))
    got, rep = solve_substring(SubstringInstance(64, 37), rng=9)
    assert spliced[0] == 0 and got == 37 and rep.attempts == len(spliced) - 1
    assert spliced[1:] == recover._substring_guesses(64)[:rep.attempts]


def test_substring_small_trials():
    rng = np.random.default_rng(7)
    for _ in range(4):
        s = int(rng.integers(0, 64))
        inst = SubstringInstance(64, s)
        got, rep = solve_substring(inst, rng=rng)
        assert got == s and rep.queries == inst.queries


def test_substring_non_power2():
    rng = np.random.default_rng(8)
    inst = SubstringInstance(48, 31)
    got, _ = solve_substring(inst, rng=rng)
    assert got == 31


def test_spliced_oracle_is_usable_when_close():
    # a nearby splice corrupts few cosets; the parity sieve still works
    # about as often as on the exact oracle
    N, s, t = 256, 100, 99
    rng = np.random.default_rng(9)
    fail_spliced = fail_exact = 0
    for _ in range(10):
        inst = SubstringInstance(N, s)
        try:
            run_staged_parity(PhaseBackend(splice_substring(inst, t),
                                           rng=rng), 8)
        except SieveExhaustedError:
            fail_spliced += 1
        try:
            run_staged_parity(PhaseBackend(
                make_reflection_oracle(GroupCtx(N), (s - t) % N), rng=rng), 8)
        except SieveExhaustedError:
            fail_exact += 1
    assert abs(fail_spliced - fail_exact) <= 2


def test_abelian_zero_shift():
    A = AbelianGroupSpec((4, 9))
    p = make_shift_pair(A, (0, 0))
    got, _ = solve_abelian_shift(p, rng=10)
    assert got == (0, 0)


def test_abelian_rank2():
    A = AbelianGroupSpec((16, 9))
    rng = np.random.default_rng(11)
    for _ in range(4):
        s = (int(rng.integers(0, 16)), int(rng.integers(0, 9)))
        p = make_shift_pair(A, s)
        got, _ = solve_abelian_shift(p, rng=rng)
        assert got == s


@pytest.mark.parametrize("orders", [(3, 4099), (4099, 3),
                                    (3, (1 << 64) - 59), (4, 3, 4099 ** 2),
                                    [4099], [2 * 4099] * 2, [(1 << 61) - 1]])
def test_abelian_large_order_refused_before_any_query(orders):
    # a digit readout scores p candidates per copy, and the chain reads
    # primes up to 4096: a group of rank 2 or more, or a radix order r^n
    # (a list [r] * n), with a prime factor past 4096 (4099, 2^61 - 1 and
    # 2^64 - 59 are prime) is refused before the first query, with the
    # generator unmoved, wherever that order sits, after trial division
    # up to 4096 alone.  D_p for such p stays with recover_slope_general
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    if isinstance(orders, list):
        r, n = orders[0], len(orders)
        p = make_reflection_oracle(GroupCtx(r ** n), 1)
        solve = lambda: recover_slope_radix(p, r, n, rng=rng)
    else:
        p = make_shift_pair(AbelianGroupSpec(orders), (1,) * len(orders))
        solve = lambda: solve_abelian_shift(p, rng=rng)
    with pytest.raises(ValueError, match="prime factors <= 4096"):
        solve()
    assert p.queries == 0 and rng.bit_generator.state == state


@pytest.mark.parametrize("orders", [(3, 5000), (5000, 3), (4, 3, 4097)])
def test_abelian_smooth_large_order_recovers(orders):
    # orders past 4096 whose primes are not (5000 = 2^3 5^4,
    # 4097 = 17 * 241) are read a few prime digits a step
    A = AbelianGroupSpec(orders)
    assert plan_steps(orders) == {
        (3, 5000): [[3], [2, 2, 2, 25, 5, 5]],
        (5000, 3): [[4, 2, 25, 25], [3]],
        (4, 3, 4097): [[4], [3], [17, 241]]}[orders]
    for i in range(3):
        gen = np.random.default_rng([A.size, i])
        s = tuple(int(gen.integers(0, n)) for n in orders)
        got, _ = solve_abelian_shift(make_shift_pair(A, s),
                                     rng=np.random.default_rng([A.size, i, 1]))
        assert got == s


def test_abelian_rank1_uses_dihedral_path():
    A = AbelianGroupSpec((45,))
    p = make_shift_pair(A, (17,))
    got, _ = solve_abelian_shift(p, rng=12)
    assert got == (17,)


def test_abelian_truncated_rank1():
    # truncated free coordinate: the shift must come back despite the
    # corrupted wrap window
    A = AbelianGroupSpec((1024,), free_rank=1)
    p = make_shift_pair(A, (9,))
    got, _ = solve_abelian_shift(p, rng=13)
    assert got == (9,)


def _reflection_case(N, s, solve):
    return make_reflection_oracle(GroupCtx(N), s), s, solve


def _shift_case(orders, s):
    return make_shift_pair(AbelianGroupSpec(orders), s), s, solve_abelian_shift


REPORT_CASES = {
    "power2-256": lambda: _reflection_case(
        256, 201, lambda o, rng: recover_slope_power2(o, 8, rng=rng)),
    "radix-3^4": lambda: _reflection_case(
        81, 58, lambda o, rng: recover_slope_radix(o, 3, 4, rng=rng)),
    "general-45": lambda: _reflection_case(45, 29, recover_slope_general),
    "general-64": lambda: _reflection_case(64, 43, recover_slope_general),
    "abelian-16x9": lambda: _shift_case((16, 9), (11, 4)),
    "rank1-45": lambda: _shift_case((45,), (29,)),
    "substring-64": lambda: (SubstringInstance(64, 37), 37, solve_substring),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_queries_are_the_instance_count(case):
    # a report's queries are what its instance's counter recorded during
    # that solve: the second solve on the same instance starts from a
    # nonzero count
    inst, secret, solve = REPORT_CASES[case]()
    rng = np.random.default_rng(21)
    for _ in range(2):
        q0 = inst.queries
        got, rep = solve(inst, rng=rng)
        assert got == secret and rep.queries == inst.queries - q0 > 0


CHECK_CASES = {
    # instance, planted secret as the check's oracle reads it, solver,
    # every candidate
    "reflection-12": lambda: (make_reflection_oracle(GroupCtx(12), 7), 7,
                              recover_slope_general, range(12)),
    "substring-16": lambda: (SubstringInstance(16, 11), 11, solve_substring,
                             range(16)),
    "pair-4x3": lambda: (make_shift_pair(AbelianGroupSpec((4, 3)), (3, 2)),
                         (3, 2), solve_abelian_shift,
                         [(a, b) for a in range(4) for b in range(3)]),
    "truncated-8": lambda: (
        make_shift_pair(AbelianGroupSpec((8,), free_rank=1), (5,)), 5,
        solve_abelian_shift, range(8)),
    "rank1-9": lambda: (make_shift_pair(AbelianGroupSpec((9,)), (4,)), 4,
                        solve_abelian_shift, range(9)),
}


@pytest.mark.parametrize("case", list(CHECK_CASES))
def test_every_check_is_one_query_pair(case, monkeypatch):
    # each solver's own loop and oracle, fed every candidate as a one-
    # attempt recovery: the check accepts exactly the planted secret,
    # costs the instance exactly one query pair and draws nothing
    inst, secret, solve, cands = CHECK_CASES[case]()
    rng = np.random.default_rng(4)
    real = recover._las_vegas
    verified = []
    real_verify = recover.verify_reflection
    monkeypatch.setattr(recover, "verify_reflection",
                        lambda o, s: verified.append(s) or real_verify(o, s))

    def each_candidate(o, attempt, max_retries):
        for c in cands:
            state, q0 = rng.bit_generator.state, inst.queries
            try:
                got, rep = real(o, lambda i: c, 1)
                assert got == c == secret and rep.queries == 2
            except NoHiddenReflectionError:
                assert c != secret
            assert inst.queries - q0 == 2 and verified[-1] == c
            assert rng.bit_generator.state == state
        assert len(verified) == len(cands)
        return real(o, lambda i: secret, 1)

    monkeypatch.setattr(recover, "_las_vegas", each_candidate)
    got, _ = solve(inst, rng=rng)
    # rank 1 wraps the slope as a 1-tuple
    assert got in (secret, (secret,))


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_each_solver_verifies_each_candidate_once(case, monkeypatch):
    # the five solvers check every candidate an attempt returns with one
    # verify_reflection call, and nothing else
    inst, secret, solve = REPORT_CASES[case]()
    real = recover._las_vegas
    cands, verified = [], []

    def counted(o, attempt, max_retries):
        return real(o, lambda i: cands.append(attempt(i)) or cands[-1],
                    max_retries)

    real_verify = recover.verify_reflection
    monkeypatch.setattr(recover, "verify_reflection",
                        lambda o, s: verified.append(s) or real_verify(o, s))
    monkeypatch.setattr(recover, "_las_vegas", counted)
    got, rep = solve(inst, rng=np.random.default_rng(22))
    assert got == secret and verified == cands
    assert 1 <= len(cands) <= rep.attempts


_TORSION_GROUPS = [(16, 9), (8, 27), (5, 7, 4), (4, 4), (2, 2, 2, 2), (3, 5)]


def _radix_levels(r):
    """The n >= 1 with r^n <= 20,000."""
    return int(math.log(20_000, r) + 1e-9)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_small_inputs_recover_their_secret(data):
    # every solver on small inputs: radix r = 2..10 at each level up to
    # r^n <= 20,000 (the levels the list law and the tomography counts
    # size) with Python and numpy radices and level counts, torsion
    # groups, general N <= 300 with Python and numpy secrets, and
    # substring N <= 100, each group order a Python or a numpy integer;
    # each answer equals the secret, in Python ints
    kind = data.draw(st.sampled_from(["radix", "abelian", "general",
                                      "substring"]))
    order = data.draw(st.sampled_from([int, np.int64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    if kind == "radix":
        r = data.draw(st.integers(2, 10))
        n = data.draw(st.integers(1, _radix_levels(r)))
        s = data.draw(st.integers(0, r ** n - 1))
        num = data.draw(st.sampled_from([int, np.int64]))
        got, _ = recover_slope_radix(
            make_reflection_oracle(GroupCtx(order(r ** n)), s), num(r),
            num(n), rng=rng)
    elif kind == "abelian":
        A = AbelianGroupSpec(tuple(map(
            order, data.draw(st.sampled_from(_TORSION_GROUPS)))))
        s = tuple(data.draw(st.integers(0, m - 1)) for m in A.orders)
        got, _ = solve_abelian_shift(make_shift_pair(A, s), rng=rng)
    elif kind == "general":
        N = data.draw(st.integers(2, 300))
        s = data.draw(st.integers(0, N - 1))
        num = data.draw(st.sampled_from([int, np.int64]))
        got, _ = recover_slope_general(
            make_reflection_oracle(GroupCtx(order(N)), num(s)), rng=rng)
    else:
        N = data.draw(st.integers(2, 100))
        s = data.draw(st.integers(0, N - 1))
        got, _ = solve_substring(SubstringInstance(order(N), s), rng=rng)
    assert got == s
    assert all(type(v) is int for v in (got if kind == "abelian" else [got]))
