"""Group arithmetic: dihedral normal forms, index-r subgroup embeddings,
and the automorphism units used by the general-N recovery."""

from math import gcd

import pytest
from hypothesis import given, strategies as st

from dhsieve.group import (
    AbelianGroupSpec,
    DihedralElement,
    GroupCtx,
    dmul,
    identity,
    subgroup_embed,
    unit_for_odd_part,
)


def naive_mul(a, c, N):
    # independent model: y^t x^b acts on Z/N as j -> (-1)^t j + b;
    # compose the affine maps (right factor acts first on the state,
    # i.e. group product = composition in our normal-form convention)
    t = a.t ^ c.t
    b = (a.b * (-1) ** c.t + c.b) % N
    return DihedralElement(t, b)


elements = st.tuples(st.integers(0, 1), st.integers(0, 30))


@given(elements, elements, st.integers(2, 31))
def test_dmul_matches_affine_model(ea, ec, N):
    a = DihedralElement(ea[0], ea[1] % N)
    c = DihedralElement(ec[0], ec[1] % N)
    assert dmul(a, c, GroupCtx(N)) == naive_mul(a, c, N)


def test_dmul_frozen_example():
    # (y x^3)(y x^5) = x^2 in D_8
    ctx = GroupCtx(8)
    got = dmul(DihedralElement(1, 3), DihedralElement(1, 5), ctx)
    assert got == DihedralElement(0, 2)


@given(elements, st.integers(2, 31))
def test_inverse_and_identity(e, N):
    ctx = GroupCtx(N)
    a = DihedralElement(e[0], e[1] % N)
    # reflections are involutions, rotations invert by negation
    inv = a if a.t else DihedralElement(0, ctx.neg(a.b))
    assert dmul(a, inv, ctx) == identity(ctx)
    assert dmul(identity(ctx), a, ctx) == a
    assert dmul(a, identity(ctx), ctx) == a


@given(elements, elements, elements, st.integers(2, 19))
def test_associativity(e1, e2, e3, N):
    ctx = GroupCtx(N)
    a, b, c = (DihedralElement(t, v % N) for t, v in (e1, e2, e3))
    assert dmul(dmul(a, b, ctx), c, ctx) == dmul(a, dmul(b, c, ctx), ctx)


@given(elements, elements, st.integers(1, 7), st.integers(2, 3))
def test_subgroup_embed_is_homomorphism(e1, e2, half, r):
    N = r * half
    ctx, sub = GroupCtx(N), GroupCtx(half)
    for parity in range(r):
        a = DihedralElement(e1[0], e1[1] % half)
        b = DihedralElement(e2[0], e2[1] % half)
        lhs = subgroup_embed(parity, dmul(a, b, sub), ctx, r)
        rhs = dmul(subgroup_embed(parity, a, ctx, r),
                   subgroup_embed(parity, b, ctx, r), ctx)
        assert lhs == rhs


def test_subgroup_embed_images():
    ctx = GroupCtx(12)
    # rotations land on <x^2>, reflections on y x^parity <x^2>
    assert subgroup_embed(0, DihedralElement(0, 5), ctx).b % 2 == 0
    assert subgroup_embed(1, DihedralElement(1, 4), ctx) == DihedralElement(1, 9)
    with pytest.raises(ValueError):
        subgroup_embed(2, DihedralElement(0, 0), ctx, r=2)


def _odd_split(N):
    """N = 2^a * M with M odd, by repeated halving."""
    a, M = 0, N
    while M % 2 == 0:
        a, M = a + 1, M // 2
    return a, M


@pytest.mark.parametrize("N,j", [(360, 0), (360, 3), (45, 5), (24, 2), (8, 4)])
def test_unit_for_odd_part(N, j):
    a, M = _odd_split(N)
    u = unit_for_odd_part(N, j)
    assert u % (1 << a) == 1 % (1 << a)
    if M > 1:
        assert (u * pow(2, j, M)) % M == 1


@given(st.integers(1, 1 << 40), st.integers(0, 64))
def test_unit_for_odd_part_closed_form(N, j):
    a, M = _odd_split(N)
    u = unit_for_odd_part(N, j)
    assert 0 <= u < N
    assert u % (1 << a) == 1 % (1 << a)
    assert (u << j) % M == 1 % M
    assert gcd(u, N) == 1


def test_abelian_spec_arithmetic():
    A = AbelianGroupSpec((5, 7))
    assert A.size == 35
    assert A.add((4, 6), (3, 2)) == (2, 1)
    assert A.neg((1, 0)) == (4, 0)
    assert A.reduce((9, -1)) == (4, 6)
    assert A.zero == (0, 0)
    assert AbelianGroupSpec((4, 8), free_rank=2).free_rank == 2
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            AbelianGroupSpec((4,), free_rank=bad)
