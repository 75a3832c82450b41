"""Hiding oracles: coset constancy, sealed secrets, query counting, the
hidden-shift-to-reflection reduction, and spliced substring
approximations."""

import re
from fractions import Fraction

import pytest

from dhsieve.group import AbelianGroupSpec, DihedralElement, GroupCtx
from dhsieve.oracle import (
    SubstringInstance,
    make_reflection_oracle,
    make_shift_pair,
    make_trivial_oracle,
    restrict_reflection,
    shift_to_dihedral,
    splice_substring,
    with_label_automorphism,
)


def test_reflection_oracle_constant_exactly_on_cosets():
    N, s = 12, 5
    o = make_reflection_oracle(GroupCtx(N), s)
    # the coset of x^a is {x^a, y x^(s+a)}
    tokens = set()
    for a in range(N):
        v1 = o.evaluate(DihedralElement(0, a))
        v2 = o.evaluate(DihedralElement(1, (s + a) % N))
        assert v1 == v2
        tokens.add(v1)
    assert len(tokens) == N  # distinct cosets get distinct values


def test_query_counter_and_secrecy():
    o = make_reflection_oracle(GroupCtx(16), 9)
    assert o.queries == 0
    o.evaluate(DihedralElement(0, 3))
    o.evaluate(DihedralElement(1, 3))
    assert o.queries == 2
    d = o.to_dict()
    assert set(d) == {"group", "corruption_rate", "queries"}
    assert "slope" not in str(d)


def test_trivial_oracle_is_injective():
    o = make_trivial_oracle(GroupCtx(6))
    vals = {o.evaluate(DihedralElement(t, b)) for t in (0, 1) for b in range(6)}
    assert len(vals) == 12
    assert o.corruption_rate == 1


def test_shift_pair_relation():
    A = AbelianGroupSpec((8, 5))
    s = (3, 2)
    p = make_shift_pair(A, s)
    for a0 in range(8):
        for a1 in range(5):
            assert p.f((a0, a1)) == p.g(A.add((a0, a1), s))


def test_truncated_shift_breaks_only_wrap_window():
    A = AbelianGroupSpec((16,), free_rank=1)
    p = make_shift_pair(A, (3,))
    good = sum(p.f((a,)) == p.g(((a + 3) % 16,)) for a in range(16))
    assert good == 13  # 3 of 16 cosets broken by the truncation
    assert p.truncation_corruption() == Fraction(3, 16)


def test_shift_to_dihedral_rank1_hides_reflection():
    A = AbelianGroupSpec((10,))
    p = make_shift_pair(A, (7,))
    o = shift_to_dihedral(p)
    assert isinstance(o.ctx, GroupCtx) and o.ctx.N == 10
    for a in range(10):
        assert (o.evaluate(DihedralElement(0, a))
                == o.evaluate(DihedralElement(1, (7 + a) % 10)))
    assert o.queries == p.queries  # shared counter


@pytest.mark.parametrize("s,t,d", [(10, 10, 0), (10, 3, 7), (3, 10, 7),
                                   (0, 0, 0)])
def test_splice_corruption_rate(s, t, d):
    inst = SubstringInstance(16, s)
    o = splice_substring(inst, t)
    assert o.corruption_rate == Fraction(d, 16)
    # exact splice (t == s) hides the zero slope perfectly
    if d == 0:
        for b in range(16):
            assert (o.evaluate(DihedralElement(0, b))
                    == o.evaluate(DihedralElement(1, b)))


def test_substring_domains():
    inst = SubstringInstance(8, 5)
    with pytest.raises(ValueError):
        inst.f(8)
    with pytest.raises(ValueError):
        inst.g(16)
    for x in range(8):
        assert inst.f(x) == inst.g(x + 5)


def test_restriction_behavior():
    # s = 6 in D_16; restricting to the even-parity subgroup hides 3 in D_8
    o = make_reflection_oracle(GroupCtx(16), 6)
    sub = restrict_reflection(o, 0)
    assert sub.ctx.N == 8
    for a in range(8):
        assert (sub.evaluate(DihedralElement(0, a))
                == sub.evaluate(DihedralElement(1, (3 + a) % 8)))
    assert sub.queries == o.queries  # shared counter
    # wrong parity: the hidden reflection is not in the subgroup
    bad = restrict_reflection(o, 1)
    assert bad.corruption_rate == 1
    vals = {bad.evaluate(DihedralElement(t, b)) for t in (0, 1)
            for b in range(8)}
    assert len(vals) == 16  # injective restriction


def test_automorphism_wrapper():
    N, s, u = 15, 7, 2
    o = make_reflection_oracle(GroupCtx(N), s)
    w = with_label_automorphism(o, u)
    for t in (0, 1):
        for b in range(N):
            assert (w.evaluate(DihedralElement(t, b))
                    == o._eval(DihedralElement(t, (u * b) % N)))
    # the wrapped oracle hides u^-1 s: check behaviorally
    uinv_s = (pow(u, -1, N) * s) % N
    for a in range(N):
        assert (w.evaluate(DihedralElement(0, a))
                == w.evaluate(DihedralElement(1, (uinv_s + a) % N)))


def _oracle_kinds(N):
    """(build, key) pairs for every oracle kind on D_N (or D_A at rank 2).
    build() makes a fresh oracle, with a fresh token key, for the same
    secret each call; key(t, b) names the level set of y^t x^b: the coset
    of the hidden reflection, or a singleton for a broken element."""
    ctx = GroupCtx(N)
    s, guess, u = N // 3, N // 2, max(N - 1, 1)  # u: x -> x^-1

    def par():  # D_2N at an odd slope: parity 1 hides s, parity 0 is injective
        return make_reflection_oracle(GroupCtx(2 * N), 2 * s + 1)

    kinds = [
        (lambda: make_reflection_oracle(ctx, s), lambda t, b: (b - t * s) % N),
        (lambda: make_trivial_oracle(ctx), lambda t, b: (t, b)),
        (lambda: splice_substring(SubstringInstance(N, s), guess),
         lambda t, b: b + (guess if t else s)),
        (lambda: restrict_reflection(par(), 1),
         lambda t, b: (b - t * s) % N),
        (lambda: restrict_reflection(par(), 0), lambda t, b: (t, b)),
        (lambda: with_label_automorphism(make_reflection_oracle(ctx, s), u),
         lambda t, b: (u * b - t * s) % N),
    ]
    for A in (AbelianGroupSpec((N,)), AbelianGroupSpec((N,), free_rank=1)):
        kinds.append((lambda A=A: shift_to_dihedral(make_shift_pair(A, (s,))),
                      lambda t, b, A=A: b if t else
                      (b + s) % N if A.free_rank == 0 else b + s))
    if N % 2 == 0:
        A2 = AbelianGroupSpec((N // 2, 2))
        kinds.append((lambda: shift_to_dihedral(make_shift_pair(A2, (s % (N // 2), 1))),
                      lambda t, b: b if t else A2.add(b, (s % (N // 2), 1))))
    return kinds


def _elements_of(o):
    ctx = o.ctx
    if isinstance(ctx, GroupCtx):
        rot = range(ctx.N)
    else:
        rot = [(a, c) for a in range(ctx.orders[0]) for c in range(ctx.orders[1])]
    return [DihedralElement(t, b) for t in (0, 1) for b in rot]


def test_tokens_equal_exactly_on_level_sets():
    for N in range(1, 17):
        for build, key in _oracle_kinds(N):
            o, again = build(), build()
            els = _elements_of(o)
            toks = [o.evaluate(e) for e in els]
            keys = [key(e.t, e.b) for e in els]
            # equal tokens <=> equal keys: the key -> token map is a bijection
            assert len(set(zip(keys, toks))) == len(set(keys)) == len(set(toks))
            for v in toks:
                assert re.fullmatch(r"OracleValue\([0-9a-f]{24}\)", repr(v))
            # a second oracle with the same secret has its own token key
            assert not set(toks) & {again.evaluate(e) for e in els}
