"""Group arithmetic: dihedral normal forms, the index-r subgroup
embedding restrict_reflection evaluates through, and the automorphism
units used by the general-N recovery."""

from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dhsieve.group import (
    AbelianGroupSpec,
    DihedralElement,
    GroupCtx,
    dmul,
    identity,
    int_dtype,
    uniform,
    unit_for_odd_part,
)
from dhsieve.oracle import make_reflection_oracle, restrict_reflection


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


def subgroup_embed(parity, e, ctx, r=2):
    """Reference embedding of D_{N/r} onto F_parity = <x^r, y x^parity> in
    D_N: x^b -> x^(r b) and y x^b -> y x^(parity + r b)."""
    if e.t == 0:
        return DihedralElement(0, (r * e.b) % ctx.N)
    return DihedralElement(1, (parity + r * e.b) % ctx.N)


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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_restriction_evaluates_through_the_embedding(r):
    # restrict_reflection maps each element onto F_parity itself; at
    # every N <= 36 divisible by r, every slope and every parity it reads
    # the parent oracle at the reference embedding of every element
    for N in range(r, 37, r):
        ctx = GroupCtx(N)
        for s in range(N):
            o = make_reflection_oracle(ctx, s)
            for parity in range(r):
                sub = restrict_reflection(o, parity, r)
                for t in (0, 1):
                    for b in range(N // r):
                        e = DihedralElement(t, b)
                        assert sub.evaluate(e) == o.evaluate(
                            subgroup_embed(parity, e, ctx, r))


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


@pytest.mark.parametrize("orders", [(16, 9), (5, 7, 4), (2 ** 40 + 7, 6),
                                    (2 ** 70, 3)])
def test_abelian_modulus_and_turn_dtype_are_built_once(orders):
    # the modulus is one read-only array, the orders typed by int_dtype
    # of the largest (object past 62 bits), and the turn dtype is read
    # once too; neither changes equality or hashing, which see only the
    # fields
    A = AbelianGroupSpec(orders)
    mod = A.modulus
    assert A.modulus is mod and mod.tolist() == list(orders)
    assert mod.dtype == int_dtype(max(orders))
    with pytest.raises(ValueError):
        mod[0] = 1
    with pytest.raises(ValueError):
        mod += 1
    assert mod.tolist() == list(orders)
    assert A.turn_dtype is A.turn_dtype is int_dtype(max(orders) ** 2)
    twin = AbelianGroupSpec(orders)
    assert twin == A and hash(twin) == hash(A) and {A: 1}[twin] == 1
    assert repr(twin) == repr(A)
    assert AbelianGroupSpec(orders, free_rank=1) != A


@pytest.mark.parametrize("N", [7, 2 ** 31 - 1, 2 ** 31, 3 ** 40])
def test_dihedral_orders_and_turn_dtype(N):
    # D_N lists its one order as AbelianGroupSpec lists its orders, and
    # reads its turn dtype (int64 for N < 2^31) once, outside equality
    ctx = GroupCtx(N)
    assert ctx.orders == (N,)
    assert ctx.turn_dtype is ctx.turn_dtype is int_dtype(N * N)
    assert (ctx.turn_dtype is np.int64) == (N < 2 ** 31)
    assert ctx == GroupCtx(N) and hash(ctx) == hash(GroupCtx(N))


@pytest.mark.parametrize("N", [7, 360, 2 ** 40 + 3, 2 ** 61, 2 ** 70 + 5])
def test_one_element_draw_is_random_below(N):
    # a draw of one element takes the same value, and leaves the same
    # generator state, as one one-value uniform draw: secrets drawn this
    # way keep their values at every width
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    got = GroupCtx(N).random_elements(a, 1).tolist()
    assert got == uniform(b, N, 1).tolist() and type(got[0]) is int
    assert a.bit_generator.state == b.bit_generator.state


def test_abelian_draw_is_element_by_element():
    # past 62 bits the rows are drawn one coordinate at a time
    A = AbelianGroupSpec((16, 9, 2 ** 70))
    a, b = np.random.default_rng(12), np.random.default_rng(12)
    got = A.random_elements(a, 5).tolist()
    assert got == [[uniform(b, n, 1).tolist()[0] for n in A.orders]
                   for _ in range(5)]


@pytest.mark.parametrize("orders", [(16, 9), (1, 4), (3, 2 ** 40),
                                    (2 ** 33, 5, 7)])
def test_abelian_one_call_draw_is_the_random_below_loop(orders):
    # one rng.integers call over the orders takes the values, and leaves
    # the generator state, of a one-value uniform draw per coordinate
    A = AbelianGroupSpec(orders)
    a, b = np.random.default_rng(13), np.random.default_rng(13)
    got = A.random_elements(a, 300)
    assert got.dtype == np.int64 and got.shape == (300, len(orders))
    assert got.tolist() == [[uniform(b, n, 1).tolist()[0] for n in orders]
                            for _ in range(300)]
    assert a.bit_generator.state == b.bit_generator.state


def _random_below(rng, N):
    """The one-value draw the uniform draw replaced, kept as its
    reference: rng.integers up to 62 bits, else 64 spare bits of
    rng.bytes reduced mod N."""
    if N.bit_length() <= 62:
        return int(rng.integers(0, N))
    nbytes = (N.bit_length() + 64) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") % N


def _random_labels(rng, count, bits):
    """The race's label draw the uniform draw replaced, kept as its
    reference: one rng.bytes call, the top bits of each slice."""
    nbytes = (bits + 7) // 8
    excess = 8 * nbytes - bits
    raw = rng.bytes(nbytes * count)
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
            >> excess for i in range(count)]


def test_width_rule_thresholds():
    # labels stay int64 up to 62 bits, products of labels for N < 2^31
    assert int_dtype((1 << 62) - 1) is np.int64
    assert int_dtype(1 << 62) is object
    assert int_dtype(((1 << 31) - 1) ** 2) is np.int64
    assert int_dtype((1 << 31) ** 2) is object


# moduli on both sides of 2^62, powers of two and their neighbours
_MODULI = st.one_of(
    st.integers(1, 1 << 90),
    st.integers(0, 90).map(lambda b: 1 << b),
    st.integers(58, 66).flatmap(
        lambda b: st.integers((1 << b) - 2, (1 << b) + 2)))


@given(_MODULI, st.integers(0, 30), st.integers(0, 2 ** 32))
def test_uniform_draw_lies_in_range_typed_by_the_rule(modulus, count, seed):
    got = uniform(np.random.default_rng(seed), modulus, count)
    assert got.shape == (count,)
    assert got.dtype == (np.int64 if modulus < 1 << 62 else object)
    assert all(type(x) is int and 0 <= x < modulus for x in got.tolist())


@given(_MODULI, st.integers(0, 12), st.integers(0, 2 ** 32))
def test_uniform_draw_is_the_random_below_stream(modulus, count, seed):
    # every modulus but a wide power of two draws what count random_below
    # calls drew, and leaves the generator where they left it
    assume(modulus < 1 << 62 or modulus & (modulus - 1))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uniform(a, modulus, count).tolist()
    assert got == [_random_below(b, modulus) for _ in range(count)]
    assert a.bit_generator.state == b.bit_generator.state


def _power_of_two_chunks(rng, bits, count):
    """The per-value read the word path replaced, kept as its reference:
    one rng.bytes call cut into ceil(bits / 8)-byte chunks, each read
    with int.from_bytes and reduced mod 2^bits."""
    nbytes = (bits + 7) // 8
    raw = rng.bytes(nbytes * count)
    return [int.from_bytes(raw[i:i + nbytes], "little") % (1 << bits)
            for i in range(0, len(raw), nbytes)]


@pytest.mark.parametrize("bits", [63, 64, 65, 96, 127, 128, 129, 300])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_power_of_two_words_are_the_per_chunk_read(bits, count):
    # whole 64-bit words, a partial top word, and the word boundaries
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    got = uniform(a, 1 << bits, count)
    assert got.dtype == object and got.shape == (count,)
    assert all(type(x) is int for x in got.tolist())
    assert got.tolist() == _power_of_two_chunks(b, bits, count)
    assert a.random() == b.random()


@given(st.integers(63, 300), st.integers(0, 40), st.integers(0, 2 ** 32))
def test_wide_power_of_two_takes_exactly_its_bits(bits, count, seed):
    # one rng.bytes call of ceil(bits / 8) bytes per value: whole-byte
    # widths draw the race's old labels, and others their low bits
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uniform(a, 1 << bits, count).tolist()
    assert got == _power_of_two_chunks(b, bits, count)
    assert a.bit_generator.state == b.bit_generator.state
    if bits % 8 == 0:
        c = np.random.default_rng(seed)
        assert got == _random_labels(c, count, bits)
