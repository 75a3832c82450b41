"""End-to-end secret recovery: power-of-two recursion, general N,
hidden substrings through spliced oracles, and abelian hidden shifts."""

import numpy as np
import pytest

from dhsieve.errors import NoHiddenReflectionError, SieveExhaustedError
from dhsieve.group import AbelianGroupSpec, GroupCtx
from dhsieve.oracle import (
    SubstringInstance,
    make_reflection_oracle,
    make_shift_pair,
    make_trivial_oracle,
    splice_substring,
)
from dhsieve.phase import PhaseBackend
from dhsieve.recover import (
    RecoveryReport,
    recover_slope_general,
    recover_slope_power2,
    recover_slope_radix,
    solve_abelian_shift,
    solve_substring,
    verify_reflection,
)
from dhsieve.staged import run_staged_parity


def test_report_requires_verification():
    with pytest.raises(ValueError):
        RecoveryReport(secret=5, queries=10, attempts=1, verified=False)
    RecoveryReport(secret=None, queries=10, attempts=1, verified=False)


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
        assert rep.verified and rep.queries == o.queries
        assert rep.attempts >= 1


def test_power2_pinned_queries():
    # a change to any draw of the sieve moves this count
    o = make_reflection_oracle(GroupCtx(1 << 10), 777)
    got, rep = recover_slope_power2(o, 10, rng=np.random.default_rng(3))
    assert got == 777 and rep.attempts == 1
    assert o.queries == rep.queries == 8283


def test_power2_zero_and_n0():
    o = make_reflection_oracle(GroupCtx(1), 0)
    got, _ = recover_slope_power2(o, 0, rng=1)
    assert got == 0


def test_power2_rejects_wrong_order():
    with pytest.raises(ValueError):
        recover_slope_power2(make_reflection_oracle(GroupCtx(12), 5), 4)


def test_injective_oracle_raises():
    o = make_trivial_oracle(GroupCtx(8))
    with pytest.raises(NoHiddenReflectionError):
        recover_slope_power2(o, 3, rng=2, max_retries=3)


def test_radix_recovery_r3():
    rng = np.random.default_rng(3)
    for _ in range(6):
        s = int(rng.integers(0, 27))
        o = make_reflection_oracle(GroupCtx(27), s)
        got, rep = recover_slope_radix(o, 3, 3, rng=rng)
        assert got == s and rep.verified


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
        got, rep = recover_slope_general(o, rng=rng)
        assert got == s and rep.verified


@pytest.mark.parametrize("N, s, queries", [(360, 123, 2114),
                                           (4095, 1000, 9986)])
def test_general_pinned_queries(N, s, queries):
    # a change to any draw of the sieve moves these counts; the interval
    # sieve samples only the psi_1 copies the readout reads, which puts
    # N = 4095 at least 10x below the 159,746 queries of a fixed
    # C_0 * 8^m sample per sieve call
    o = make_reflection_oracle(GroupCtx(N), s)
    got, rep = recover_slope_general(o, rng=np.random.default_rng(1))
    assert got == s and rep.attempts == 1
    assert o.queries == rep.queries == queries
    assert N != 4095 or queries <= 15974


def test_substring_exact_guess_is_fast():
    # s = 0 is the first grid point: the zero-slope splice verifies
    # immediately
    inst = SubstringInstance(64, 0)
    got, rep = solve_substring(inst, rng=6)
    assert got == 0 and rep.attempts == 1


def test_substring_small_trials():
    rng = np.random.default_rng(7)
    for _ in range(4):
        s = int(rng.integers(0, 64))
        inst = SubstringInstance(64, s)
        got, rep = solve_substring(inst, rng=rng)
        assert got == s
        assert rep.verified and rep.queries == inst.queries


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
        got, rep = solve_abelian_shift(p, rng=rng)
        assert got == s and rep.verified


def test_abelian_rank1_uses_dihedral_path():
    A = AbelianGroupSpec((45,))
    p = make_shift_pair(A, (17,))
    got, rep = solve_abelian_shift(p, rng=12)
    assert got == (17,) and rep.verified


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
        assert got == secret and rep.verified
        assert rep.queries == inst.queries - q0 > 0
