"""Greedy radix sieve: objective functions, suffix pairing, the
cancellation race, and residue recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dhsieve.errors import SieveExhaustedError
from dhsieve.greedy import (
    Objective,
    _match_len,
    alpha_abelian,
    alpha_radix,
    cancellation_race,
    default_radix_budget,
    greedy_sieve,
    race_key,
    run_radix_recovery,
)
from dhsieve.group import GroupCtx
from dhsieve.oracle import make_reflection_oracle
from dhsieve.phase import PhaseBackend


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
    obj = Objective("radix", r=3)
    assert not obj.needs_flip(9)       # leading digit 1
    assert obj.needs_flip(18)          # leading digit 2 -> negate
    obj_a = Objective("abelian", orders=(16, 9))
    assert obj_a.needs_flip((12, 3))
    assert not obj_a.needs_flip((4, 8))
    assert obj_a.is_zero((0, 0)) and not obj_a.is_zero((0, 1))


def test_objective_key_orders_by_low_digits():
    obj = Objective("radix", r=2)
    # 0b0101 and 0b1101 share two low bits beyond alpha=0
    k1, k2, k3 = 0b0101, 0b1101, 0b0011
    assert obj.key(k1)[:2] == obj.key(k2)[:2]
    assert obj.key(k1)[:2] != obj.key(k3)[:2]


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
    obj = Objective("radix", r=2)
    with pytest.raises(ValueError):
        greedy_sieve(backend(16, 5), obj, lambda k: False, 1)


def test_greedy_sieve_no_deadlock_tiny_budget():
    obj = Objective("radix", r=2)
    be = backend(16, 5, seed=1)
    try:
        targets, st = greedy_sieve(be, obj, lambda k: k % 8 == 0, 2)
        assert targets
    except SieveExhaustedError:
        pass  # also acceptable: never hangs


def test_greedy_sieve_targets_and_stats():
    obj = Objective("radix", r=2)
    be = backend(1 << 10, 345, seed=2)
    targets, st = greedy_sieve(be, obj, lambda k: k % (1 << 9) == 0, 1024)
    assert all(q.label == 1 << 9 for q in targets)
    assert all(not q.consumed for q in targets)
    assert st.queries_used == 1024
    assert be.oracle.queries == 1024


def test_greedy_sieve_pinned_record():
    # pinned record; r = 3 exercises the flips and the max_targets stop
    obj = Objective("radix", r=3)
    be = backend(3 ** 6, 100, seed=11)
    targets, st = greedy_sieve(be, obj, lambda k: k % 243 == 0, 300,
                               max_targets=4)
    assert [q.label for q in targets] == [243] * 12
    assert (st.combines, st.work, st.queries_used) == (107, 530, 300)


def test_greedy_quasilinear_work():
    obj = Objective("radix", r=2)
    budget = 4096
    be = backend(1 << 16, 54321, seed=3)
    try:
        _, st = greedy_sieve(be, obj, lambda k: k % (1 << 15) == 0, budget)
        stats = st
    except SieveExhaustedError:
        stats = None
    if stats is not None:
        assert stats.work <= 40 * budget * math.log2(budget)


def test_greedy_hit_rate_large_budget():
    # moderately sized version of the designed operating point
    hits = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = int(rng.integers(0, 1 << 16))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 16), s), rng=rng)
        obj = Objective("radix", r=2)
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
    # two labels of one race bucket: up to 96 bits, alpha = v for both
    v = data.draw(st.integers(0, 95))
    odd = st.integers(0, (1 << (95 - v)) - 1).map(lambda x: 2 * x + 1)
    a, b = data.draw(odd) << v, data.draw(odd) << v
    sa, sb = race_key(a, v), race_key(b, v)
    ta, tb = _digit_tuple_key(a, v), _digit_tuple_key(b, v)
    assert (sa < sb, sa == sb) == (ta < tb, ta == tb)
    assert _match_len(sa, sb) == _match_len(ta, tb)


def test_cancellation_race_trivial_budget():
    rng = np.random.default_rng(5)
    best, st = cancellation_race([0b1010, 0b0110], rng)
    assert 0 <= best <= 96
    assert st.combines <= 2


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


def test_run_radix_recovery_n1():
    rng = np.random.default_rng(10)
    for s in (0, 1, 2):
        be = PhaseBackend(make_reflection_oracle(GroupCtx(3), s), rng=rng)
        res, _ = run_radix_recovery(be, 3, 1)
        assert res == s


def test_default_budget_monotone():
    assert default_radix_budget(2, 8) < default_radix_budget(2, 16)
    assert default_radix_budget(3, 6) > 100
