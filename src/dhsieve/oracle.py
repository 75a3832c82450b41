"""Hiding oracles: deterministic reflection oracles, hidden shift pairs,
hidden substring instances and their spliced approximations.

The secret slope/shift is sealed inside the oracle object: the public
surface exposes only evaluation (with query counting) and metadata.  The
phase-qubit backend reads the secret through a module-internal hook when
it samples measurement outcomes, mirroring the fact that only the quantum
process ever "touches" the hidden subgroup.

Oracle values are opaque fixed-width tokens: keyed hashes of a coset
representative.  Two evaluations agree exactly when the arguments lie in
the same coset.
"""

from __future__ import annotations

import hashlib
import secrets as _secrets
from fractions import Fraction

from .group import DihedralElement, GroupCtx, subgroup_embed


class OracleValue(bytes):
    """Opaque token; equality means same coset.  A bytes subclass, so
    hashing and comparison run in C."""

    __slots__ = ()

    def __repr__(self):
        return f"OracleValue({self.hex()})"


class _Counter:
    """Monotone query counter, shareable between an oracle and the
    derived oracles (restrictions, automorphism wrappers) built on it."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self, n=1):
        self.value += n


def _tokenizer():
    """Keyed injective encoding of coset representatives.  The keyed
    state is built once; each token hashes a copy of it."""
    copy = hashlib.blake2b(digest_size=12, key=_secrets.token_bytes(16)).copy

    def tok(rep):
        h = copy()
        h.update(repr(rep).encode())
        return OracleValue(h.digest())

    return tok


class HidingOracle:
    """A function on D_N (or D_A) constant exactly on cosets of the hidden
    reflection subgroup, with a query counter and an optional corruption
    rate for spliced approximations."""

    def __init__(self, ctx, slope, eval_fn, corruption_rate=Fraction(0),
                 counter=None):
        self.ctx = ctx
        self.corruption_rate = Fraction(corruption_rate)
        if not 0 <= self.corruption_rate <= 1:
            raise ValueError("corruption_rate must lie in [0, 1]")
        self._slope = slope
        self._eval = eval_fn
        self._counter = counter if counter is not None else _Counter()

    @property
    def queries(self):
        return self._counter.value

    def evaluate(self, element):
        """Evaluate the hiding function; costs one query."""
        self._counter.value += 1
        return self._eval(element)

    def to_dict(self):
        """Serializable description; the secret is deliberately omitted."""
        if isinstance(self.ctx, GroupCtx):
            group = {"kind": "dihedral", "N": self.ctx.N}
        else:
            group = {"kind": "generalized", "orders": list(self.ctx.orders)}
        return {
            "group": group,
            "corruption_rate": [self.corruption_rate.numerator,
                                self.corruption_rate.denominator],
            "queries": self.queries,
        }

    def __repr__(self):
        return f"HidingOracle({self.to_dict()!r})"

    # -- backend hook (not part of the algorithm-facing API) --

    def _phase_turns(self, label):
        """Phase of the qubit |psi_label> as a fraction of a full turn."""
        return self.ctx.turns(label, self._slope)


def make_reflection_oracle(ctx, s):
    """Oracle hiding H = <y x^s> in D_N (or D_A, s a coordinate vector):
    f(y^t x^b) = token(b - t*s)."""
    if ctx.reduce(s) != s:
        raise ValueError("slope out of range")
    tok = _tokenizer()
    minus_s = ctx.neg(s)

    def ev(e):
        return tok(ctx.add(e.b, minus_s) if e.t else ctx.reduce(e.b))

    return HidingOracle(ctx, s, ev)


def make_trivial_oracle(ctx):
    """Injective oracle: the hidden subgroup is trivial, so every sampled
    qubit carries no phase information (corruption rate 1)."""
    tok = _tokenizer()
    return HidingOracle(ctx, ctx.zero, lambda e: tok((e.t, e.b)),
                        corruption_rate=Fraction(1))


# ---------------------------------------------------------------------------
# Hidden shift pairs


class ShiftPair:
    """Two injective functions f, g on an abelian group A with
    f(a) = g(a + s).  The shift s is sealed; f and g count queries.

    For truncated free summands the shift relation holds except on the
    wrap-around window, exactly like a spliced approximation.
    """

    def __init__(self, A, shift, f_fn, g_fn):
        self.A = A
        self._shift = A.reduce(shift)
        self._f = f_fn
        self._g = g_fn
        self._counter = _Counter()

    @property
    def queries(self):
        return self._counter.value

    def f(self, a):
        self._counter.bump()
        return self._f(self.A.reduce(a))

    def g(self, a):
        self._counter.bump()
        return self._g(self.A.reduce(a))

    def truncation_corruption(self):
        """Fraction of cosets broken by truncating free summands."""
        broken = Fraction(0)
        ntrunc = self.A.free_rank
        if ntrunc == 0:
            return broken
        good = Fraction(1)
        for j in range(self.A.rank - ntrunc, self.A.rank):
            good *= 1 - Fraction(self._shift[j], self.A.orders[j])
        return 1 - good


def make_shift_pair(A, shift):
    """Standard injective hidden-shift instance on A with the given shift.

    Truncated free summands are shifted without wrapping, so the pair only
    approximately hides the shift there (the wrap window is broken).
    """
    shift = A.reduce(shift)
    tok = _tokenizer()
    ntrunc = A.free_rank
    cut = A.rank - ntrunc

    def g_fn(a):
        return tok(tuple(a))

    def f_fn(a):
        out = []
        for j, (v, s, n) in enumerate(zip(a, shift, A.orders)):
            if j < cut:
                out.append((v + s) % n)
            else:
                out.append(v + s)  # no wrap: fresh value past the window
        return tok(tuple(out))

    return ShiftPair(A, shift, f_fn, g_fn)


def shift_to_dihedral(p):
    """Reduce a hidden shift pair on A to a hidden reflection oracle on
    the generalized dihedral group: h(x^a) = f(a), h(y x^a) = g(a).

    The resulting oracle hides <y x^s> where s is the pair's shift.  For a
    rank-1 group the oracle is returned over the plain dihedral group D_N.
    """
    A = p.A
    if A.rank == 1:
        ctx, slope = GroupCtx(A.orders[0]), p._shift[0]
        coords = lambda b: (b % ctx.N,)
    else:
        ctx, slope, coords = A, p._shift, A.reduce

    def ev(e):
        return (p._g if e.t else p._f)(coords(e.b))

    return HidingOracle(ctx, slope, ev,
                        corruption_rate=p.truncation_corruption(),
                        counter=p._counter)


# ---------------------------------------------------------------------------
# Hidden substring instances and spliced approximation


class SubstringInstance:
    """The N-into-2N hidden substring problem: f on {0..N-1} is a shifted
    restriction of the injective g on {0..2N-1}, f(x) = g(x + s)."""

    def __init__(self, N, s):
        if not 0 <= s < N:
            raise ValueError("substring shift must satisfy 0 <= s < M - N")
        self.N = N
        self.M = 2 * N
        self._s = s
        self._tok = _tokenizer()
        self._counter = _Counter()

    @property
    def queries(self):
        return self._counter.value

    def f(self, x):
        if not 0 <= x < self.N:
            raise ValueError("f argument out of domain")
        self._counter.bump()
        return self._tok(x + self._s)

    def g(self, x):
        if not 0 <= x < self.M:
            raise ValueError("g argument out of domain")
        self._counter.bump()
        return self._tok(x)


def splice_substring(inst, t):
    """Spliced approximation: guess t for the substring shift and read the
    pair (f, g(.+t)) as a reflection oracle on D_N.

    The result hides slope u = s - t (mod N) with corruption rate
    |s - t| / N: the wrapped window of that size returns fresh unmatched
    tokens."""
    N = inst.N
    if not 0 <= t < inst.M - N:
        raise ValueError("guess out of range")
    d = abs(inst._s - t)
    u = (inst._s - t) % N

    def ev(e):
        if e.t:
            return inst._tok((e.b % N) + t)  # h(y x^c) = g(c + t)
        return inst._tok((e.b % N) + inst._s)  # h(x^b) = f(b)

    return HidingOracle(GroupCtx(N), u, ev,
                        corruption_rate=Fraction(d, N),
                        counter=inst._counter)


# ---------------------------------------------------------------------------
# Derived oracles used by the recovery loops


def restrict_reflection(o, parity, r=2):
    """View the restriction of the oracle to F_parity = <x^r, y x^parity>
    as an oracle on D_{N/r}.

    When parity == s mod r the restriction hides slope (s - parity)/r;
    otherwise H is not contained in F_parity and the restriction is
    injective, i.e. fully corrupted."""
    ctx = o.ctx
    if not isinstance(ctx, GroupCtx):
        raise TypeError("restriction applies to dihedral oracles")
    if ctx.N % r != 0:
        raise ValueError("N not divisible by the radix")
    sub = GroupCtx(ctx.N // r)

    def ev(e):
        return o._eval(subgroup_embed(parity, e, ctx, r))

    if o._slope % r == parity:
        slope = ((o._slope - parity) // r) % sub.N
        corruption = o.corruption_rate
    else:
        slope = 0
        corruption = Fraction(1)
    return HidingOracle(sub, slope, ev, corruption_rate=corruption,
                        counter=o._counter)


def with_label_automorphism(o, u):
    """Wrap the oracle with the rotation automorphism x -> x^u (u a unit
    mod N).  The wrapped oracle hides slope u^-1 s."""
    ctx = o.ctx
    if not isinstance(ctx, GroupCtx):
        raise TypeError("automorphism wrapper applies to dihedral oracles")
    N = ctx.N
    uinv = pow(u, -1, N)

    def ev(e):
        return o._eval(DihedralElement(e.t, (u * e.b) % N))

    return HidingOracle(ctx, (uinv * o._slope) % N, ev,
                        corruption_rate=o.corruption_rate,
                        counter=o._counter)
