"""Arithmetic for dihedral groups D_N, generalized dihedral groups D_A,
and the index-r subgroups used by the recursive recovery loops.

Elements are kept in the normal form y^t x^b.  The rotation exponent b is
an ordinary Python int (arbitrary precision), or a tuple of ints for
generalized dihedral groups over a product of cyclic factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class GroupCtx:
    """Dihedral group D_N; N is the order of the rotation subgroup."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")

    # the rotation exponents Z/N, with the operations AbelianGroupSpec has
    zero = 0

    def reduce(self, b):
        return b % self.N

    def add(self, u, v):
        return (u + v) % self.N

    def neg(self, u):
        return (-u) % self.N

    def turns(self, k, s):
        """Phase of psi_k at slope s, as a fraction of a full turn."""
        return ((k * s) % self.N) / self.N

    def random_element(self, rng):
        return random_below(rng, self.N)


def random_below(rng, N):
    """Uniform integer in [0, N) for any N >= 1, also past 64 bits."""
    if N.bit_length() <= 62:
        return int(rng.integers(0, N))
    nbytes = (N.bit_length() + 64) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") % N


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group Z/N_1 + ... + Z/N_a, possibly obtained by
    truncating free summands to Z/2^m.

    orders: the cyclic factor orders N_1..N_a (truncated factors included).
    free_rank: how many trailing factors came from truncating a Z summand.
    """

    orders: tuple
    free_rank: int = 0

    def __post_init__(self):
        if any(n < 1 for n in self.orders):
            raise ValueError("all cyclic orders must be >= 1")
        if not 0 <= self.free_rank <= len(self.orders):
            raise ValueError("free_rank must lie in [0, rank]")

    @property
    def rank(self):
        return len(self.orders)

    @property
    def size(self):
        p = 1
        for n in self.orders:
            p *= n
        return p

    def reduce(self, vec):
        return tuple(v % n for v, n in zip(vec, self.orders))

    def add(self, u, v):
        return tuple((a + b) % n for a, b, n in zip(u, v, self.orders))

    def neg(self, u):
        return tuple((-a) % n for a, n in zip(u, self.orders))

    @property
    def zero(self):
        return (0,) * self.rank

    def turns(self, k, s):
        """Phase of psi_k at shift s, as a fraction of a full turn."""
        total = 0.0
        for a, b, n in zip(k, s, self.orders):
            total += ((a * b) % n) / n
        return total % 1.0

    def random_element(self, rng):
        return tuple(random_below(rng, n) for n in self.orders)


@dataclass(frozen=True)
class DihedralElement:
    """y^t x^b with t the reflection flag and b the rotation exponent.

    b is an int for D_N and a tuple for a generalized dihedral group.
    """

    t: int
    b: object

    def __post_init__(self):
        if self.t not in (0, 1):
            raise ValueError("reflection flag must be 0 or 1")


def identity(ctx):
    return DihedralElement(0, ctx.zero)


def dmul(a, c, ctx):
    """Product (y^ta x^ba)(y^tc x^bc) = y^(ta+tc) x^((-1)^tc ba + bc)."""
    ba = ctx.neg(a.b) if c.t else a.b
    return DihedralElement(a.t ^ c.t, ctx.add(ba, c.b))


def subgroup_embed(parity, e, ctx, r=2):
    """Embed D_{N/r} onto the subgroup F_parity = <x^r, y x^parity> of D_N.

    t=0 maps to (0, r*b); t=1 maps to (1, parity + r*b).  With r=2 these
    are the two index-2 dihedral subgroups used by the power-of-two
    recursion.
    """
    if not isinstance(ctx, GroupCtx):
        raise TypeError("subgroup_embed only applies to dihedral groups")
    if ctx.N % r != 0:
        raise ValueError("N must be divisible by the radix")
    if not 0 <= parity < r:
        raise ValueError("parity out of range")
    if e.t == 0:
        return DihedralElement(0, (r * e.b) % ctx.N)
    return DihedralElement(1, (parity + r * e.b) % ctx.N)


def unit_for_odd_part(N, j):
    """The unit u mod N with u = 1 mod 2^a and u = 2^-j mod M, where
    N = 2^a M with M odd.  Multiplying rotation exponents by u is the
    automorphism x -> x^(2^-j) on the odd factor Z/M."""
    a = (N & -N).bit_length() - 1
    M = N >> a
    # u - 1 = 2^a x with 2^a x = 2^-j - 1 mod M; the final mod N only
    # acts at N = 1
    x = (pow(2, -j, M) - 1) * pow(2, -a, M) % M
    u = (1 + (x << a)) % N
    if gcd(u, N) != 1:
        raise ArithmeticError("automorphism multiplier is not a unit")
    return u
