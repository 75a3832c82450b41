"""The phase-qubit abstraction: single-use tokens |psi_k> ~ |0> + e^(2 pi i ks/N)|1>
and every measurement the sieve algorithms use.

The hidden slope is consulted only inside measurement sampling, through a
module-internal hook on the oracle.  Algorithm code sees labels and
measurement outcomes, nothing else.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    BackendMismatchError,
    InsufficientCopiesError,
    QubitConsumedError,
)
from .group import int_dtype

_P_CLIP = 1e-9
# Wald's sequential test (A. Wald, Ann. Math. Stat. 16, 1945): a readout
# over C candidates stops once its best leads the runner-up by
# ln((C - 1) / READOUT_DELTA) in log-likelihood; on an honest model with
# equal priors it then misreads with probability at most READOUT_DELTA
READOUT_DELTA = 0.002
# entries a likelihood block scores at most: a sequential readout scores
# its copies a block at a time and stops at the block that decides it, so
# at 4096 candidates a block of 16 copies reads few past the deciding one
_BLOCK_ENTRIES = 1 << 16


class PhaseQubit:
    """Single-use phase qubit with a known label.

    classical is set for corrupted qubits that carry no phase information;
    every measurement on them is a fair coin.  minus_branch records, for
    qubits produced by combine, which extraction branch occurred (it is
    classical information revealed by the extraction measurement).
    """

    __slots__ = ("label", "backend", "classical", "consumed", "minus_branch")

    def __init__(self, label, backend, classical=False, minus_branch=None):
        self.label = label
        self.backend = backend
        self.classical = classical
        self.consumed = False
        self.minus_branch = minus_branch

    def _consume(self):
        if self.consumed:
            raise QubitConsumedError("phase qubit already consumed")
        self.consumed = True

    def __repr__(self):
        state = "consumed" if self.consumed else "live"
        return f"PhaseQubit(label={self.label}, {state})"


class PhaseBackend:
    """One oracle plus one RNG stream: the per-trial quantum backend.

    rng is a numpy Generator, used as is, or a seed for a new one.
    coin_bias is the extraction coin's plus-branch probability; anything
    but the honest 1/2 is a fault the verification suite injects.
    """

    def __init__(self, oracle, rng=None, coin_bias=0.5):
        if not 0 <= coin_bias <= 1:
            raise ValueError("coin_bias must lie in [0, 1]")
        self.oracle = oracle
        self.rng = np.random.default_rng(rng)
        self.coin_bias = coin_bias


def _draw(backend, count):
    """The one draw behind every sampler: count oracle queries, then the
    corruption flags (drawn only when the rate is positive), then count
    uniform labels.  Returns (labels, classical mask)."""
    o = backend.oracle
    o._counter.bump(count)
    rate = float(o.corruption_rate)
    if rate > 0.0:
        classical = backend.rng.random(count) < rate
    else:
        classical = np.zeros(count, dtype=bool)
    return o.ctx.random_elements(backend.rng, count), classical


class PhaseList:
    """Phase qubits held as columns: the labels (int64 on D_N up to 62
    bits, an object array past that, a (count, rank) matrix on an
    abelian group), the classical mask of corrupted qubits, and the
    backend.  Labels are classical information, readable at any time;
    the qubits are consumed whole, by take, qubits or an
    observation, and a second use raises QubitConsumedError."""

    __slots__ = ("labels", "classical", "backend", "consumed")

    def __init__(self, labels, classical, backend):
        self.labels = labels
        self.classical = classical
        self.backend = backend
        self.consumed = False

    def __len__(self):
        return len(self.labels)

    def take(self):
        """Consume the list: its (labels, classical mask)."""
        if self.consumed:
            raise QubitConsumedError("phase list already consumed")
        self.consumed = True
        return self.labels, self.classical

    def qubits(self):
        """Consume a dihedral list as PhaseQubits with int labels."""
        labels, classical = self.take()
        be = self.backend
        if not classical.any():
            return [PhaseQubit(k, be) for k in labels.tolist()]
        return [PhaseQubit(k, be, c)
                for k, c in zip(labels.tolist(), classical.tolist())]

    @classmethod
    def pack(cls, qubits, backend):
        """Consume dihedral PhaseQubits into one list, labels typed as
        sample_batch types them."""
        for q in qubits:
            q._consume()
        dtype = int_dtype(backend.oracle.ctx.N)
        return cls(np.array([q.label for q in qubits], dtype),
                   np.array([q.classical for q in qubits], bool), backend)


def sample_phase_qubit(backend):
    """Draw one phase qubit: uniform label, one oracle query; corrupted
    oracles yield a classical qubit with probability corruption_rate."""
    labels, classical = _draw(backend, 1)
    return PhaseQubit(backend.oracle.ctx.reduce(labels.tolist()[0]),
                      backend, classical.tolist()[0])


def sample_batch(backend, count):
    """count phase qubits from one draw, as a PhaseList: the same law as
    count calls of sample_phase_qubit, and the same draws when count is
    1."""
    return PhaseList(*_draw(backend, count), backend)


def combine(q1, q2, u=None):
    """Extract one qubit from two: the result label is k+l or k-l, an
    unbiased choice revealed by the extraction measurement.  u is the
    extraction's uniform draw (drawn from the backend when None); the
    minus branch occurs when u >= coin_bias.  Consumes both inputs;
    corruption propagates by OR."""
    be = q1.backend
    if q2.backend is not be:
        raise BackendMismatchError("qubits belong to different backends")
    if q1.consumed or q2.consumed or q1 is q2:
        raise QubitConsumedError("phase qubit already consumed")
    q1.consumed = q2.consumed = True
    if u is None:
        u = be.rng.random()
    minus = u >= be.coin_bias
    ctx = be.oracle.ctx
    label = ctx.add(q1.label, ctx.neg(q2.label) if minus else q2.label)
    return PhaseQubit(label, be, q1.classical or q2.classical, minus)


def combine_pairs(backend, labels, classical, pairs):
    """combine on columns: extract one qubit from each pair of copies
    (pairs[0][i], pairs[1][i]) of the labels and classical mask, with one
    rng.random(npairs) draw for the coins, the stream one combine call
    per pair draws.  The minus branch negates the second label, the sum
    is taken mod the group, and corruption propagates by OR.  Returns
    (labels, classical mask, minus-branch mask)."""
    first, second = labels[pairs]
    minus = backend.rng.random(pairs.shape[1]) >= backend.coin_bias
    np.negative(second.T, out=second.T, where=minus)
    first += second
    first %= backend.oracle.ctx.modulus
    left, right = classical[pairs]
    return first, left | right, minus


def negate_label(q):
    """Relabel k -> -k; the states are information-equivalent (bit flip)."""
    q._consume()
    return PhaseQubit(q.backend.oracle.ctx.neg(q.label), q.backend,
                      classical=q.classical, minus_branch=q.minus_branch)


def _observe(plist, t):
    """The one observation body: copy i returns 1 with probability
    cos^2(pi (k_i (s - t_i) mod N) / N), one exact product per copy, a
    fair coin on a classical copy, from one rng.random(count) draw; t is
    one point or one point per copy.  Consumes the list; returns the
    bits, an int64 array."""
    labels, classical = plist.take()
    backend = plist.backend
    p_one = backend.oracle._phase_turns(labels, t) * np.pi
    np.square(np.cos(p_one, out=p_one), out=p_one)
    p_one[classical] = 0.5
    return (backend.rng.random(len(labels)) < p_one).astype(np.int64)


def measure_pm(plist):
    """Measure every copy in the |+>/|-> basis: 0 ("+") with probability
    cos^2(pi k s / N), 1 ("-") otherwise.  Consumes the list; returns the
    outcomes, an int64 array."""
    return 1 - _observe(plist, plist.backend.oracle.ctx.zero)


def cosine_observe(plist, t):
    """Coins with bias cos^2(pi (s - t_i) k_i / N): measure each copy
    against its reference slope, t one point or one per copy.  Returns
    the bits, an int64 array; consumes the list."""
    return _observe(plist, t)


def tomography_mod_r(plist, readout):
    """Read d = (s_j // q) mod r, the next digit of coordinate j of s (s
    itself on D_N; digit i in base r at q = r^i), where r = readout.M and
    j and q are readout's coordinate and spacing, from labels
    (n_j/(q r)) u on coordinate j, n_j its order, and zero after it:
    observed at readout's points, s_j = p + q t with p = s_j mod q and
    the known values before j, they turn by u (d - t)/r mod 1.  The
    copies go in order to readout over u mod r, and its value (None
    while undecided) is returned; a copy with u = 0 mod r adds the same
    row to every residue.  Consumes the list."""
    if not len(plist):
        raise InsufficientCopiesError("no copies supplied")
    j, q = readout.j, readout.q
    step, rest = divmod(plist.backend.oracle.ctx.orders[j], q * readout.M)
    units = plist.labels if plist.labels.ndim == 1 else plist.labels[:, j]
    if step > 1 and not rest:
        # object labels (past 62 bits) have no divmod loop
        units, off = (np.divmod(units, step) if units.dtype != object
                      else (units // step, units % step))
        rest = np.count_nonzero(off)
    if rest:
        raise ValueError("labels are not multiples of n_j/(q r)")
    return readout.observe(plist, units % readout.M)


@functools.lru_cache(maxsize=16)
def _log_table(M):
    """What a Readout over a slope mod M scores from: the read-only
    table of clipped log-likelihoods of bit b at the turn x / M, entry
    (x, b) at 2 x + b and again at 2 M + 2 x + b (log(1 - p) for b = 0,
    log p for b = 1, p = cos^2(pi x / M) clipped to [_P_CLIP,
    1 - _P_CLIP], likelihood_readout's entries bit for bit); the
    read-only doubles of the residues 0..M-1; the read-only (2, M^2, M)
    array of every row a copy scores while it holds at most
    _BLOCK_ENTRIES entries, else None: row (b, k M + t), for label k
    observed at reference t with bit b, holds entry (k (c - t) mod M, b)
    of the table at column c; Wald's lead ln((M - 1) / READOUT_DELTA);
    and the copies a _BLOCK_ENTRIES block scores."""
    p = np.arange(M, dtype=np.int64) / M
    p *= np.pi
    np.square(np.cos(p, out=p), out=p)
    np.clip(p, _P_CLIP, 1 - _P_CLIP, out=p)
    table = np.tile(np.log(np.stack([1 - p, p], axis=1)).ravel(), 2)
    doubled = 2 * np.arange(M)
    rows = None
    if 2 * M ** 3 <= _BLOCK_ENTRIES:
        b, k, t, c = np.ogrid[:2, :M, :M, :M]
        rows = table[2 * (k * (c - t) % M) + b].reshape(2, M * M, M)
    for a in (table, doubled, rows):
        if a is not None:
            a.flags.writeable = False
    return (table, doubled, rows, math.log((M - 1) / READOUT_DELTA),
            max(1, _BLOCK_ENTRIES // M))


class Readout:
    """Sequential maximum-likelihood readout of a slope mod M over its
    residues, M = len(points) >= 2: copy i of all observed is scored at
    reference i mod M and observed at points[i mod M], its point as
    cosine_observe takes it; points holds them as one array, a row per
    point on an abelian group.  The first step, points[1] - points[0],
    names the coordinate j the points run along (0 on D_N) and their
    spacing q > 0 on it; points whose first step moves no coordinate,
    more than one, or one downward are refused.  ll sums the copies'
    rows, read counts them, and value is None until the first copy where
    the best residue leads by ln((M - 1) / READOUT_DELTA), then that
    residue.  A copy's row is gathered from _log_table(M) at its turns
    k (c - t) mod M and its bit."""

    def __init__(self, points):
        if len(points) < 2:
            raise ValueError("a readout needs at least two reference points")
        self.M = len(points)
        try:
            # int64 while every coordinate fits, so cosine_observe takes
            # the points as they are; Python ints past that
            self.points = np.asarray(points, dtype=np.int64)
        except OverflowError:
            self.points = np.array(points, dtype=object)
        moved = [(j, b - a) for j, (a, b) in enumerate(
            zip(*self.points[:2].reshape(2, -1).tolist())) if a != b]
        if len(moved) != 1 or moved[0][1] < 0:
            raise ValueError("a readout's first step must move one"
                             " coordinate upward")
        (self.j, self.q), = moved
        self.ll = np.zeros(self.M)
        self.read = 0
        self.value = None
        (self._table, self._doubled, self._rows, self._lead,
         self._step) = _log_table(self.M)

    def observe(self, plist, labels):
        """Observe the copies of plist, whose labels mod M are labels
        (each in [0, M)), in one cosine_observe call, and add their rows
        to ll up to the copy that decides the readout, scoring
        _BLOCK_ENTRIES entries at a time.  Returns value; consumes
        plist."""
        M, step, n = self.M, self._step, len(plist)
        t = np.arange(self.read, self.read + n) % M
        bits = cosine_observe(plist, self.points.take(t, axis=0))
        k = np.asarray(labels, dtype=np.int64)
        if self._rows is not None:
            # copy i's row is row (bit, k M + t) of the rows
            at = k * M
            at += t
        else:
            # copy i's entry c sits at 2 k c + (bit - 2 k t) mod 2M of
            # the table, both terms reduced mod 2M
            at = k * t
            at *= -2
            at += bits
            at %= 2 * M
        for i in range(0, n, step):
            block = slice(i, i + step)
            if self._rows is not None:
                rows = self._rows[bits[block], at[block]]
            else:
                rows = k[block, None] * self._doubled % (2 * M)
                rows += at[block, None]
                rows = self._table.take(rows)
            rows[0] += self.ll
            np.add.accumulate(rows, axis=0, out=rows)
            top = rows.copy()
            top.partition(-2, axis=1)
            won = top[:, -1] - top[:, -2] >= self._lead
            last = won.argmax()
            decided = won[last]
            if not decided:
                last = len(rows) - 1
            self.ll, self.read = rows[last], self.read + last + 1
            if decided:
                self.value = int(self.ll.argmax())
                break
        return self.value


def likelihood_readout(plist, points, cands, ll):
    """The maximum-likelihood readout of a slope mod M on D_M, M the
    list's group order.  One cosine_observe call observes copy i at
    points[i % len(points)].  Adds to ll, in place (and returns it), for
    each candidate c, the log-likelihood of the bits under the exact
    turn ((k_i * (c - t_i)) mod M) / M, k_i the copy's label and t_i its
    point, clipped so one unlucky bit cannot veto c.  Scores blocks of at
    most _BLOCK_ENTRIES entries, typed by int_dtype(M * M), entry by
    entry.  Consumes plist."""
    M = plist.backend.oracle.ctx.N
    dtype = int_dtype(M * M)
    k = (plist.labels.astype(dtype) % M)[:, None]
    ts = [points[i % len(points)] for i in range(len(plist))]
    zero = cosine_observe(plist, ts)[:, None] == 0
    kt = k * np.array(ts, dtype=dtype)[:, None] % M
    cands = np.asarray(cands).astype(dtype)
    step = max(1, _BLOCK_ENTRIES // len(cands))
    for i in range(0, len(zero), step):
        # one integer and one float block, each updated in place; a 0 bit
        # reads 1 - p
        turns = k[i:i + step] * cands
        turns -= kt[i:i + step]
        turns %= M
        p = np.asarray(turns / M, dtype=float)
        p *= np.pi
        np.square(np.cos(p, out=p), out=p)
        np.clip(p, _P_CLIP, 1 - _P_CLIP, out=p)
        np.subtract(1, p, out=p, where=zero[i:i + step])
        np.log(p, out=p)
        p[0] += ll
        ll[:] = np.add.accumulate(p, axis=0, out=p)[-1]
    return ll
