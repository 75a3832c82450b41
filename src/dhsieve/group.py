"""Arithmetic for dihedral groups D_N and generalized dihedral groups D_A.

Elements are kept in the normal form y^t x^b.  The rotation exponent b is
an ordinary Python int (arbitrary precision), or a tuple of ints for
generalized dihedral groups over a product of cyclic factors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np


@dataclass(frozen=True)
class GroupCtx:
    """Dihedral group D_N; N is the order of the rotation subgroup."""

    N: int

    def __post_init__(self):
        # any integer type becomes a Python int; a float raises TypeError
        object.__setattr__(self, "N", operator.index(self.N))
        if self.N < 1:
            raise ValueError("N must be >= 1")
        # int_dtype of the product of two exponents, which turns computes in
        object.__setattr__(self, "turn_dtype", int_dtype(self.N * self.N))

    # the rotation exponents Z/N, with the operations AbelianGroupSpec has
    zero = 0

    @property
    def modulus(self):
        """N, which reduces a label array."""
        return self.N

    @property
    def orders(self):
        """(N,): the one cyclic order, as AbelianGroupSpec lists its own."""
        return (self.N,)

    def reduce(self, b):
        return b % self.N

    def add(self, u, v):
        return (u + v) % self.N

    def neg(self, u):
        return (-u) % self.N

    def turns(self, k, s, t):
        """Phases of psi_k at slope s against reference t in turns, for an
        array k of labels and t one point or one per label: the exact
        k (s - t) mod N, over N."""
        dtype, N = self.turn_dtype, self.N
        x = _products(k, s, t, dtype)
        x %= N
        return x / N if dtype is not object else np.asarray(x / N, dtype=float)

    def random_elements(self, rng, count):
        """count uniform exponents, an array whose tolist() gives ints."""
        return uniform(rng, self.N, count)


def _products(k, s, t, dtype):
    """The exact products k (s - t) as a new array of dtype, the inputs
    cast to it as np.asarray casts them."""
    return np.multiply(k, np.subtract(s, t, dtype=dtype, casting="unsafe"),
                       dtype=dtype, casting="unsafe")


def int_dtype(bound):
    """The one width rule: int64 while it holds every integer below bound
    with a bit to spare, so two of them add without overflow, else object
    (Python ints).  Labels ask it with N (int64 up to 62 bits), products
    of two labels with N * N (int64 for N < 2^31)."""
    return np.int64 if bound.bit_length() <= 62 else object


def uniform(rng, modulus, count):
    """count uniform integers in [0, modulus), typed by int_dtype: one
    rng.integers call while int64; past that, exactly the bits of a power
    of two, all from one rng.bytes call, or else 64 spare bits per value,
    one rng.bytes call each, so that the reduction's bias is below 2^-64.
    A power of two cuts its draw into whole-byte chunks, one per value,
    and reads each chunk as little-endian 64-bit words, the top one
    masked to the value's bits."""
    if int_dtype(modulus) is np.int64:
        return rng.integers(0, modulus, size=count)
    if modulus & (modulus - 1) == 0:
        bits = modulus.bit_length() - 1
        nbytes, nwords = (bits + 7) // 8, (bits + 63) // 64
        words = np.zeros((count, 8 * nwords), dtype=np.uint8)
        words[:, :nbytes] = np.frombuffer(
            rng.bytes(nbytes * count), dtype=np.uint8).reshape(count, nbytes)
        words = words.view("<u8")
        top = np.uint64((1 << (bits - 64 * (nwords - 1))) - 1)
        values = (words[:, -1] & top).astype(object)
        for j in range(nwords - 2, -1, -1):
            values = values << 64 | words[:, j].astype(object)
        return values
    nbytes = (modulus.bit_length() + 64) // 8
    return np.array([int.from_bytes(rng.bytes(nbytes), "little") % modulus
                     for _ in range(count)], dtype=object)


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
        object.__setattr__(self, "orders",
                           tuple(map(operator.index, self.orders)))
        if any(n < 1 for n in self.orders):
            raise ValueError("all cyclic orders must be >= 1")
        if not 0 <= self.free_rank <= len(self.orders):
            raise ValueError("free_rank must lie in [0, rank]")
        # modulus: the orders as one read-only array, which reduces a
        # (count, rank) label matrix row by row, typed by int_dtype of the
        # largest order; turn_dtype: int_dtype of the product of two
        # coordinates, which turns computes in
        largest = max(self.orders, default=1)
        modulus = np.array(self.orders, dtype=int_dtype(largest))
        modulus.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "turn_dtype", int_dtype(largest ** 2))

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

    def turns(self, k, s, t):
        """Phases of psi_k at shift s against reference t in turns, for a
        (count, rank) matrix k of labels and t one point or one per row:
        the exact products k (s - t), coordinates summed left to right."""
        dtype, mod = self.turn_dtype, self.modulus
        x = _products(k, s, t, dtype)
        x %= mod
        x = x / mod if dtype is not object else np.asarray(x / mod, dtype=float)
        total = x[:, 0]
        for j in range(1, x.shape[1]):
            total = total + x[:, j]
        return total % 1.0

    def random_elements(self, rng, count):
        """count uniform elements, one after another, as the rows of a
        (count, rank) matrix.  One rng.integers call draws them all when
        the labels are int64; it takes the same values, and leaves the
        same generator state, as a one-value uniform draw per
        coordinate, which is how wider rows are drawn."""
        mod = self.modulus
        if mod.dtype != object:
            return rng.integers(0, mod, size=(count, self.rank))
        rows = [[uniform(rng, n, 1).tolist()[0] for n in self.orders]
                for _ in range(count)]
        return np.array(rows, dtype=object).reshape(count, self.rank)


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
