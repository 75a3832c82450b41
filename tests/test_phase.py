"""Phase qubits and measurements: single-use discipline, extraction label
arithmetic, and measurement laws cross-checked against the dense state
vectors (an independent computation path)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhsieve.errors import (
    BackendMismatchError,
    InsufficientCopiesError,
    QubitConsumedError,
)
from dhsieve import phase
from dhsieve.group import (
    AbelianGroupSpec,
    GroupCtx,
    int_dtype,
    unit_for_odd_part,
)
from dhsieve.harness import _backends
from dhsieve.oracle import (
    HidingOracle,
    make_reflection_oracle,
    make_trivial_oracle,
)
from dhsieve.phase import (
    _BLOCK_ENTRIES,
    READOUT_DELTA,
    PhaseBackend,
    PhaseQubit,
    Readout,
    combine,
    combine_pairs,
    cosine_observe,
    likelihood_readout,
    measure_pm,
    negate_label,
    PhaseList,
    sample_batch,
    sample_phase_qubit,
    tomography_mod_r,
)
from dhsieve.staged import estimate_from_quadratures, run_staged_parity
from dhsieve.statevec import psi_vector


def backend(N, s, seed=0, **kw):
    return PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                        rng=np.random.default_rng(seed), **kw)


def copies(labels, be, classical=None):
    """A PhaseList of the given labels on be, typed as sample_batch types
    them; honest copies unless a classical mask is given."""
    ctx = be.oracle.ctx
    dtype = int_dtype(ctx.N) if isinstance(ctx, GroupCtx) else np.int64
    labels = np.array(labels, dtype=dtype)
    if classical is None:
        classical = np.zeros(len(labels), dtype=bool)
    return PhaseList(labels, np.array(classical, dtype=bool), be)


def cosine_overlap_sim(N, k, s, t):
    """|<psi'_k|psi_k>|^2 for reference slope t: the exact bias of a
    cosine observation, from explicit state vectors."""
    return psi_vector(N, s, k).fidelity(psi_vector(N, t, k))


# ---------------------------------------------------------------------------
# The per-qubit readouts the list readouts replaced, kept as references:
# one PhaseQubit and one rng.random() per observation, in Python floats.


def _ref_turns(ctx, k, s):
    """Phase of psi_k at slope (or shift) s, in turns, for one label."""
    if isinstance(ctx, GroupCtx):
        return ((k * s) % ctx.N) / ctx.N
    total = 0.0
    for a, b, n in zip(k, s, ctx.orders):
        total += ((a * b) % n) / n
    return total % 1.0


def _ref_observe(q, t):
    q._consume()
    o = q.backend.oracle
    if q.classical:
        p_one = 0.5
    else:
        delta = _ref_turns(o.ctx, q.label, o._slope) - _ref_turns(
            o.ctx, q.label, t)
        p_one = math.cos(math.pi * delta) ** 2
    return 1 if q.backend.rng.random() < p_one else 0


def _ref_measure_pm(q):
    return 1 - _ref_observe(q, q.backend.oracle.ctx.zero)


def _ref_cosine_observe(q, t):
    return _ref_observe(q, t)


def _ref_likelihood_readout(qs, M, points, cands, ll):
    ts = [points[i % len(points)] for i in range(len(qs))]
    bits = [_ref_cosine_observe(q, t) for q, t in zip(qs, ts)]
    dtype = np.int64 if M < 1 << 31 else object
    k = np.array([q.label % M for q in qs], dtype=dtype)
    kt = np.array([q.label * t % M for q, t in zip(qs, ts)], dtype=dtype)
    cands = np.asarray(cands).astype(dtype)[:, None]
    step = max(1, _BLOCK_ENTRIES // len(cands))
    for i in range(0, len(bits), step):
        turns = k[i:i + step] * cands
        turns -= kt[i:i + step]
        turns %= M
        p = np.asarray(turns / M, dtype=float)
        p *= np.pi
        np.square(np.cos(p, out=p), out=p)
        np.clip(p, 1e-9, 1 - 1e-9, out=p)
        for col, bit in zip(p.T, bits[i:i + step]):
            ll += np.log(col) if bit else np.log(1 - col)
    return ll


def _ref_tomography_mod_r(qs, r):
    # the stopping rule one copy at a time: observe copy i at reference
    # i mod r and add its row (a label-0 copy's is the same for every
    # candidate), until the best candidate leads the runner-up by
    # ln((r - 1) / READOUT_DELTA); the copies after it are observed and
    # ignored.  Returns -1 when no copy decides.
    N = qs[0].backend.oracle.ctx.N
    ll, value = np.zeros(r), -1
    for i, q in enumerate(qs):
        t = i % r
        if value >= 0:
            _ref_cosine_observe(q, t)
            continue
        ll = _ref_likelihood_readout([q], N, [t], np.arange(r), ll)
        top = np.sort(ll)
        if top[-1] - top[-2] >= math.log((r - 1) / READOUT_DELTA):
            value = int(np.argmax(ll))
    return value


def _ref_quadratures(ones, N):
    tq = max(1, N // 4)
    half = len(ones) // 2 or 1
    cos_obs = [_ref_cosine_observe(q, 0) for q in ones[:half]]
    sin_obs = [_ref_cosine_observe(q, tq) for q in ones[half:]]
    f0 = sum(cos_obs) / len(cos_obs)
    cos_phi = 2 * f0 - 1
    if sin_obs:
        gamma = 2 * math.pi * tq / N
        fq = sum(sin_obs) / len(sin_obs)
        sin_phi = (2 * fq - 1 - cos_phi * math.cos(gamma)) / math.sin(gamma)
    else:
        sin_phi = 0.0
    phi = math.atan2(sin_phi, cos_phi)
    return round(phi / (2 * math.pi) * N) % N


def _assert_readout_matches_reference(ctx, s, labels, classical, readout,
                                      seed=0):
    """Run a list readout and its per-qubit reference on twin backends
    over the same copies: the same output (bits, answer or
    log-likelihoods, bit for bit) and the same next generator draw.
    readout is (list readout, reference), each called with the copies."""
    run, ref = readout

    def make():
        o = make_reflection_oracle(ctx, s)
        return PhaseBackend(o, rng=np.random.default_rng(seed))

    be, twin = make(), make()
    got = run(copies(labels, be, classical))
    want = ref([PhaseQubit(ctx.reduce(k), twin, bool(c))
                for k, c in zip(labels, classical)])
    if isinstance(got, np.ndarray):
        assert got.dtype in (np.int64, np.float64)
        assert np.array_equal(got, np.asarray(want))
    else:
        assert type(got) is int and got == want
    assert be.rng.random() == twin.rng.random()


def _pm():
    return measure_pm, lambda qs: [_ref_measure_pm(q) for q in qs]


def _cos(t):
    return (lambda plist: cosine_observe(plist, t),
            lambda qs: [_ref_cosine_observe(q, t) for q in qs])


def _cos_each(points):
    # one reference point per copy, cycled
    def at(i):
        return points[i % len(points)]

    def run(plist):
        return cosine_observe(plist, [at(i) for i in range(len(plist))])

    return run, lambda qs: [_ref_cosine_observe(q, at(i))
                            for i, q in enumerate(qs)]


def _tomography(r):
    # -1 when the copies leave the readout undecided
    def run(plist):
        value = tomography_mod_r(plist, Readout(range(r)))
        return -1 if value is None else value

    return run, lambda qs: _ref_tomography_mod_r(qs, r)


def _quadratures(N):
    return (estimate_from_quadratures,
            lambda qs: _ref_quadratures(qs, N))


def _likelihood(M, points, cands, start):
    return (lambda plist: likelihood_readout(plist, points, cands,
                                             start.copy()),
            lambda qs: _ref_likelihood_readout(qs, M, points, cands,
                                               start.copy()))


def _every(n, count):
    return [i % n == 0 for i in range(count)]


def _readout_table():
    """(id, group, slope, labels, classical mask, readout)."""
    big = 2 ** 40 + 7          # past 2^31: turns in Python ints
    huge = 2 ** 70 + 5         # past 2^63: object labels
    N3 = 3 ** 40               # past 2^62: object labels, r = 3
    rng = np.random.default_rng(21)
    N = 360
    uinv = pow(unit_for_odd_part(N, 2), -1, N)
    cands = np.arange(40, 200)
    return [
        ("pm-honest", GroupCtx(16), 5, list(range(16)) * 3, [False] * 48,
         _pm()),
        ("pm-corrupted", GroupCtx(16), 5, list(range(16)) * 3,
         _every(3, 48), _pm()),
        ("pm-past-2^31", GroupCtx(big), big // 3 + 11,
         [int(x) for x in rng.integers(0, big, 40)], _every(4, 40), _pm()),
        ("pm-past-2^63", GroupCtx(huge), huge // 7,
         [huge // (i + 2) + i for i in range(40)], _every(5, 40), _pm()),
        ("cos-one-point", GroupCtx(24), 7, [5] * 30 + [7] * 10,
         _every(6, 40), _cos(3)),
        ("cos-per-copy", GroupCtx(4095), 1000, [1] * 37, _every(7, 37),
         _cos_each([0, 1023, 2047, 4000])),
        ("cos-past-2^63", GroupCtx(huge), 12345,
         [huge // (i + 3) for i in range(30)], [False] * 30,
         _cos_each([0, huge // 4, huge - 1])),
        ("abelian-pm", AbelianGroupSpec((4, 6)), (1, 5),
         [(a, b) for a in range(4) for b in range(6)] * 2, _every(5, 48),
         _pm()),
        ("abelian-past-2^31", AbelianGroupSpec((big, 6)), (big // 3, 5),
         [(int(x), i % 6) for i, x in enumerate(rng.integers(0, big, 30))],
         _every(4, 30), _cos_each([(0, 0), (big // 4, 1), (big - 2, 3)])),
        ("abelian-points", AbelianGroupSpec((16, 9)), (11, 4),
         [(0, 1 + i % 8) for i in range(24)], _every(5, 24),
         _cos_each([(0, 0), (0, 2), (0, 3)])),
        ("tomography-r2", GroupCtx(32), 21, [16] * 20 + [0] * 5,
         _every(4, 25), _tomography(2)),
        ("tomography-r2-corrupted", GroupCtx(32), 12, [0, 16] * 12,
         _every(2, 24), _tomography(2)),
        ("tomography-r3", GroupCtx(3 ** 5), 100,
         [81 * (1 + i % 2) for i in range(31)], _every(5, 31),
         _tomography(3)),
        ("tomography-3^40", GroupCtx(N3), N3 // 5 + 2,
         [N3 // 3 * (1 + i % 2) for i in range(31)], _every(6, 31),
         _tomography(3)),
        ("quadratures", GroupCtx(1000), 321, [1] * 24, _every(5, 24),
         _quadratures(1000)),
        ("quadratures-one-copy", GroupCtx(45), 17, [1], [False],
         _quadratures(45)),
        ("likelihood-general-round", GroupCtx(N), 123, [1] * 40,
         _every(5, 40),
         _likelihood(N, [uinv * 120 % N, 180, 300], uinv * cands % N,
                     rng.random(len(cands)))),
        ("likelihood-past-2^31", GroupCtx(big), 99, [1, 3, 5] * 8,
         _every(4, 24),
         _likelihood(big, [0, big // 4, 999], np.arange(0, big, big // 50),
                     np.zeros(51))),
        # one and two candidates: the copies' rows are added one after
        # another, where a pairwise sum of a contiguous column would not
        ("likelihood-one-candidate", GroupCtx(16), 11,
         [1 + i % 15 for i in range(40)], _every(7, 40),
         _likelihood(16, [0, 4, 5], np.array([11]), np.array([0.3]))),
        ("likelihood-two-candidates", GroupCtx(16), 11,
         [1 + i % 15 for i in range(40)], _every(7, 40),
         _likelihood(16, [0, 4, 5], np.array([3, 11]),
                     np.array([0.3, -0.7]))),
    ]


_READOUT_TABLE = _readout_table()


@pytest.mark.parametrize("row", _READOUT_TABLE,
                         ids=[r[0] for r in _READOUT_TABLE])
def test_list_readouts_match_per_qubit_references(row):
    _, ctx, s, labels, classical, readout = row
    for seed in range(3):
        _assert_readout_matches_reference(ctx, s, labels, classical,
                                          readout, seed)


_HYPOTHESIS_GROUPS = [GroupCtx(16), GroupCtx(360), GroupCtx(4095),
                      GroupCtx(2 ** 40 + 7), GroupCtx(3 ** 40),
                      GroupCtx(2 ** 70 + 5), AbelianGroupSpec((16, 9)),
                      AbelianGroupSpec((4, 4, 3)),
                      AbelianGroupSpec((2 ** 40 + 7, 6))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_list_readouts_match_per_qubit_references_hypothesis(data):
    # any group, slope, labels and corruption: the +/- measurement, the
    # cosine observation at one point or one point per copy, and on D_N
    # the quadrature and likelihood readouts; tomography on D_{r^n}
    ctx = data.draw(st.sampled_from(_HYPOTHESIS_GROUPS))
    elem = (st.integers(0, ctx.N - 1) if isinstance(ctx, GroupCtx) else
            st.tuples(*(st.integers(0, n - 1) for n in ctx.orders)))
    count = data.draw(st.integers(1, 30))
    labels = data.draw(st.lists(elem, min_size=count, max_size=count))
    classical = data.draw(st.lists(st.booleans(), min_size=count,
                                   max_size=count))
    s = data.draw(elem)
    kinds = ["pm", "cos", "cos-each"]
    if isinstance(ctx, GroupCtx):
        kinds += ["quadratures", "likelihood", "tomography"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "pm":
        readout = _pm()
    elif kind == "cos":
        readout = _cos(data.draw(elem))
    elif kind == "cos-each":
        readout = _cos_each(data.draw(st.lists(elem, min_size=1,
                                               max_size=4)))
    elif kind == "quadratures":
        readout = _quadratures(ctx.N)
    elif kind == "likelihood":
        points = data.draw(st.lists(elem, min_size=1, max_size=4))
        cands = np.array(data.draw(st.lists(elem, min_size=1, max_size=8)),
                         dtype=object if ctx.N >= 1 << 62 else np.int64)
        readout = _likelihood(ctx.N, points, cands, np.zeros(len(cands)))
    else:
        r, n = data.draw(st.sampled_from([(2, 6), (3, 5), (3, 40)]))
        ctx, step = GroupCtx(r ** n), r ** (n - 1)
        s = data.draw(st.integers(0, ctx.N - 1))
        labels = [step * (1 + i % (r - 1)) for i in range(count)]
        classical = (classical * count)[:count]
        readout = _tomography(r)
    _assert_readout_matches_reference(ctx, s, labels, classical, readout,
                                      data.draw(st.integers(0, 2 ** 32)))


# Observed bits of 64 sampled copies, and the next draw, pinned from the
# observation that took the difference of two float turns: one exact
# product per copy changes no bit.  On D_N: measure_pm, cosine_observe at
# one point and at one point per copy; seeds 21, 22, 23.
_DIHEDRAL_PINS = [
    (4095, 1234,
     "0101001000010011110110100000011100000110011110101001111110111101",
     "0100111101001010111010011101011010001110110000101001000001110101",
     "1000111111000000101000111111010001100101000010000010001010111011",
     (0.7198383105396309, 0.7613409146232895, 0.07016998236605321)),
    (2 ** 31 - 1, 2 ** 30 + 7,
     "1011101100100100100110101000101100100100100010010101111010100111",
     "1010110101100000111001111111111000001100100000100111010000001111",
     "1100000101100101110100011111011001110101000111000001111010100010",
     (0.7198383105396309, 0.7613409146232895, 0.07016998236605321)),
    (2 ** 31, 12345,
     "0000111000001011101010111000001001101000101101101001000100100110",
     "1010100101000000101001101011111000001010000000011111010100001111",
     "1100010101000101111101100100100111100001000010000010110010110111",
     (0.7198383105396309, 0.7613409146232895, 0.07016998236605321)),
    (2 ** 40 + 15, 2 ** 39 + 3,
     "1010000000111110110001001010110010111000100010110110010001001100",
     "0000101000111110011011001011101100100111001010010010001011000110",
     "1110010011001011000011100000111000100111010010011000010101000000",
     (0.7438850732737227, 0.02293302560771593, 0.8278654180975947)),
    (2 ** 70 + 5, 2 ** 69 + 11,
     "1000101101001111111110011111010100110000000011001010000000100110",
     "1101101101011011101110011101001000001010111001100111111100110101",
     "1101010110110100110110110011100010100100010101110100111011000100",
     (0.4197942691977793, 0.3309698417210053, 0.4402149424262105)),
]


def _observe_pins():
    """(group, slope, seed, reference points as a function of the
    labels or None for measure_pm, bits, next draw)"""
    rows = []
    for N, s, pm, one, each, draws in _DIHEDRAL_PINS:
        rows += [
            (GroupCtx(N), s, 21, None, pm, draws[0]),
            (GroupCtx(N), s, 22, lambda k, t=(s + N // 5) % N: t, one,
             draws[1]),
            (GroupCtx(N), s, 23, lambda k, N=N, s=s: [
                (s + 3 * i * (N // 97)) % N for i in range(len(k))], each,
             draws[2])]
    big = AbelianGroupSpec((16, 9, 2 ** 35 + 3))
    return rows + [
        (big, (5, 7, 2 ** 34 + 1), 31, None,
         "0111001001101100101001111111101010111000010111110110001111101110",
         0.6778492500529724),
        (big, (5, 7, 2 ** 34 + 1), 32,
         lambda k: [(i % 16, 2 * i % 9, 3 * i * 1000003)
                    for i in range(len(k))],
         "1111111101011111111101011111001011011101010101001011011001011110",
         0.5798501748495569),
        (AbelianGroupSpec((16, 9)), (5, 7), 33, lambda k: (3, 4),
         "0000001110111111010010111000100010010100110100001110110001000011",
         0.5514056454197823)]


@pytest.mark.parametrize("row", _observe_pins())
def test_observed_bits_pinned(row):
    ctx, s, seed, points, bits, draw = row
    be = PhaseBackend(make_reflection_oracle(ctx, s), rng=seed)
    plist = sample_batch(be, 64)
    out = (measure_pm(plist) if points is None
           else cosine_observe(plist, points(plist.labels)))
    assert "".join(map(str, out.tolist())) == bits
    assert be.rng.random() == draw


def test_observed_list_is_consumed():
    # an observation consumes the whole list, so a second one raises; a
    # pass's survivors pack into a list that consumes their PhaseQubits
    be = backend(16, 5)
    sample = sample_batch(be, 4)
    cosine_observe(sample, 3)
    for observe in (measure_pm, lambda p: cosine_observe(p, 0)):
        with pytest.raises(QubitConsumedError):
            observe(sample)
    qs = sample_batch(be, 5).qubits()
    packed = PhaseList.pack(qs, be)
    assert all(q.consumed for q in qs)
    assert packed.labels.tolist() == [q.label for q in qs]
    assert packed.labels.dtype == np.int64 and not packed.consumed
    with pytest.raises(QubitConsumedError):
        PhaseList.pack(qs[:1], be)
    measure_pm(packed)
    with pytest.raises(QubitConsumedError):
        measure_pm(packed)


def test_digit_readouts_return_python_ints():
    # _digit_recursion adds digit * r^i to a Python int; an np.int64
    # digit would wrap that sum past 2^63
    for n in (1, 6):
        bit, _ = run_staged_parity(backend(1 << n, (1 << n) - 1, seed=n), n)
        assert type(bit) is int
    for N, r in ((2 ** 64, 2), (3 ** 4, 3), (3 ** 40, 3)):
        labels = [N // r * (1 + i % (r - 1)) for i in range(64)]
        digit = tomography_mod_r(copies(labels, backend(N, N // 5)),
                                 Readout(range(r)))
        assert type(digit) is int


def test_single_use():
    be = backend(16, 5)
    sample = sample_batch(be, 3)
    measure_pm(sample)
    with pytest.raises(QubitConsumedError):
        measure_pm(sample)
    q2, q3 = sample_batch(be, 2).qubits()
    combine(q2, q3)
    with pytest.raises(QubitConsumedError):
        PhaseList.pack([q2], be)


def test_backend_mismatch():
    q1 = sample_phase_qubit(backend(16, 5, seed=1))
    q2 = sample_phase_qubit(backend(16, 5, seed=2))
    with pytest.raises(BackendMismatchError):
        combine(q1, q2)
    assert not q1.consumed and not q2.consumed


def test_combine_rejects_reuse():
    be = backend(16, 5)
    q = PhaseQubit(3, be)
    with pytest.raises(QubitConsumedError):
        combine(q, q)
    used, live = PhaseQubit(5, be), PhaseQubit(7, be)
    measure_pm(PhaseList.pack([used], be))
    with pytest.raises(QubitConsumedError):
        combine(used, live)
    with pytest.raises(QubitConsumedError):
        combine(live, used)


def test_combine_branch_threshold():
    # the minus branch is u >= coin_bias, so a biased coin shifts it
    be = backend(16, 5, coin_bias=0.8)
    plus = combine(PhaseQubit(3, be), PhaseQubit(5, be), 0.7)
    minus = combine(PhaseQubit(3, be), PhaseQubit(5, be), 0.9)
    assert not plus.minus_branch and plus.label == 8
    assert minus.minus_branch and minus.label == 14


def test_sampling_costs_queries():
    be = backend(32, 3)
    sample_batch(be, 10)
    sample_phase_qubit(be)
    assert be.oracle.queries == 11


@pytest.mark.parametrize("ctx", [GroupCtx(97), GroupCtx(2 ** 70 + 5),
                                 AbelianGroupSpec((16, 9))])
def test_one_qubit_sample_is_a_batch_of_one(ctx):
    # twin backends on a corrupted oracle: sample_phase_qubit and
    # sample_batch(., 1) are one draw, flag and label alike
    def twin():
        o = HidingOracle(ctx, ctx.zero, None, corruption_rate=Fraction(1, 3))
        return PhaseBackend(o, rng=np.random.default_rng(8))

    a, b = twin(), twin()
    flags = set()
    for _ in range(40):
        q = sample_phase_qubit(a)
        labels, classical = sample_batch(b, 1).take()
        assert (q.label, q.classical) == (ctx.reduce(labels.tolist()[0]),
                                          classical.tolist()[0])
        assert type(q.classical) is bool and type(q.label) is type(ctx.zero)
        assert a.oracle.queries == b.oracle.queries
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        flags.add(q.classical)
    assert flags == {False, True}


def test_combine_label_arithmetic():
    be = backend(16, 5, seed=3)
    plus = minus = 0
    for _ in range(2000):
        q1, q2 = sample_batch(be, 2).qubits()
        k, l = q1.label, q2.label
        out = combine(q1, q2)
        if out.minus_branch:
            assert out.label == (k - l) % 16
            minus += 1
        else:
            assert out.label == (k + l) % 16
            plus += 1
    # branch is a fair coin: 4 sigma band
    assert abs(minus / 2000 - 0.5) < 4 * math.sqrt(0.25 / 2000)


@pytest.mark.parametrize("ctx", [GroupCtx(97), GroupCtx(2 ** 70 + 5),
                                 AbelianGroupSpec((16, 9))])
def test_combine_pairs_matches_combine(ctx):
    # the column merge against one combine per pair on a twin backend,
    # with a biased coin and a corrupted oracle: the same labels,
    # classical flags, branches and generator state
    def twin():
        o = HidingOracle(ctx, ctx.zero, None, corruption_rate=Fraction(1, 3))
        return PhaseBackend(o, rng=np.random.default_rng(4), coin_bias=0.3)

    a, b = twin(), twin()
    labels, classical = sample_batch(a, 60).take()
    pairs = np.random.default_rng(5).permutation(60)[:50].reshape(2, 25)
    got, flags, minus = combine_pairs(a, labels, classical, pairs)
    qs = [PhaseQubit(ctx.reduce(k), b, c) for k, c in
          zip(sample_batch(b, 60).labels.tolist(), classical.tolist())]
    want = [combine(qs[i], qs[j]) for i, j in pairs.T.tolist()]
    assert [ctx.reduce(k) for k in got.tolist()] == [q.label for q in want]
    assert flags.tolist() == [q.classical for q in want]
    assert minus.tolist() == [q.minus_branch for q in want]
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_negate_label():
    be = backend(16, 5)
    q = PhaseQubit(3, be)
    q2 = negate_label(q)
    assert q2.label == 13 and q.consumed and not q2.consumed


def test_measure_pm_law_vs_dense_states():
    # the outcome bias equals the fidelity with the reference state,
    # computed from explicit state vectors (independent of the sampler)
    N, s, k = 16, 5, 3
    be = backend(N, s, seed=4)
    n = 20000
    zeros = int((measure_pm(copies([k] * n, be)) == 0).sum())
    p = psi_vector(N, s, k).fidelity(psi_vector(N, 0, k))
    assert abs(zeros / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_cosine_observe_law_vs_dense_states():
    N, s, k, t = 24, 7, 5, 3
    be = backend(N, s, seed=5)
    n = 20000
    ones = int(cosine_observe(copies([k] * n, be), t).sum())
    p = cosine_overlap_sim(N, k, s, t)
    assert abs(ones / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_corrupted_qubits_are_coins():
    be = PhaseBackend(make_trivial_oracle(GroupCtx(16)),
                      rng=np.random.default_rng(6))
    sample = sample_batch(be, 4000)
    assert sample.classical.all()
    ones = int(measure_pm(sample).sum())
    assert abs(ones / 4000 - 0.5) < 4 * math.sqrt(0.25 / 4000)


def test_tomography_r2_parity():
    for s in (5, 12):
        be = backend(32, s, seed=8)
        readout = Readout([0, 1])
        assert tomography_mod_r(copies([16] * 25, be), readout) == s % 2


def test_tomography_r3():
    N = 3 ** 4
    for s in (17, 30, 55):
        be = backend(N, s, seed=9)
        qs = copies([(N // 3) * (1 + i % 2) for i in range(64)], be)
        assert tomography_mod_r(qs, Readout(range(3))) == s % 3


@pytest.mark.parametrize("r", [4, 6, 8])
def test_tomography_even_radix_tells_s_from_minus_s(r):
    # only t mod r of a reference t reaches the bits, and c and -c give
    # the same cosines at t = 0 or r/2 mod r: references all there (the
    # odd multiples of N // 2r at N >= r^2) read 236, 319 and 354 of
    # 1,000 such readouts at N = r^2 as -s mod r.  The readout reads copy
    # i at t = i mod r, every residue in turn, decides on at most 400
    # copies, and its READOUT_DELTA share of these 60 rounds down to no
    # miss
    wrong = 0
    for n in (1, 2, 3):
        N = r ** n
        for i in range(20):
            rng = np.random.default_rng([r, n, i])
            s = int(rng.integers(0, N))
            be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
            qs = copies([(N // r) * int(w)
                         for w in rng.integers(1, r, size=400)], be)
            wrong += tomography_mod_r(qs, Readout(range(r))) != s % r
    assert wrong <= 60 * READOUT_DELTA


@pytest.mark.parametrize("n", [30, 38])
def test_tomography_exact_past_int64(n):
    # references lie below r, so a label times a reference (about 3^(n+1))
    # stays in int64, but the observation's k (s - t) (about 3^(2n))
    # wraps it, so the turn must be reduced in exact integers: with exact
    # turns all 40 cases read s mod 3 right
    N = 3 ** n
    for i in range(20):
        rng = np.random.default_rng([n, i])
        s = int(rng.integers(0, N))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
        qs = copies([(N // 3) * int(w)
                     for w in rng.integers(1, 3, size=64)], be)
        assert tomography_mod_r(qs, Readout(range(3))) == s % 3, (n, i)


def _scalar_readout(qs, labels, M, refs, cands, start):
    # reference: one observation and one candidate at a time, in Python
    # ints, with the same clip
    ll = [float(v) for v in start]
    for i, (q, x) in enumerate(zip(qs, labels)):
        t, point = refs[i % len(refs)]
        bit = _ref_cosine_observe(q, point)
        for j, c in enumerate(cands):
            p = math.cos(math.pi * (x * (int(c) - t) % M) / M) ** 2
            p = min(1 - 1e-9, max(1e-9, p))
            ll[j] += math.log(p) if bit else math.log(1 - p)
    return ll


def _readout_shapes():
    """(oracle, labels, M, points, candidates, start) for the two kinds of
    read; every fifth copy is classical, a fair coin, so turns of 0 and
    1/2 meet both bits and hit the clip."""
    rng = np.random.default_rng(4)
    # residue tomography: labels multiples of N/3, candidates Z/3
    N = 3 ** 5
    labels = [(N // 3) * (1 + i % 2) for i in range(31)]
    yield (make_reflection_oracle(GroupCtx(N), 100), labels, N,
           [0, 40, 120, 200], np.arange(3), np.zeros(3))
    # a general-N round: psi_1 copies, candidates multiplied by u^-1, and
    # the running ll of earlier rounds
    N = 360
    uinv = pow(unit_for_odd_part(N, 2), -1, N)
    cands = np.arange(40, 200)
    yield (make_reflection_oracle(GroupCtx(N), 123), [1] * 40, N,
           [uinv * 120 % N, 180, 300], uinv * cands % N,
           rng.random(len(cands)))


@pytest.mark.parametrize("shape", list(_readout_shapes()),
                         ids=["tomography", "general"])
def test_likelihood_readout_matches_scalar_loop(shape):
    o, labels, M, points, cands, start = shape

    def twin():
        return PhaseBackend(o, rng=np.random.default_rng(7))

    mask = [i % 5 == 0 for i in range(len(labels))]
    ll = likelihood_readout(copies(labels, twin(), mask), points, cands,
                            start.copy())
    be = twin()
    ref = _scalar_readout([PhaseQubit(k, be, c) for k, c in
                           zip(labels, mask)], labels, M,
                          [(t, t) for t in points], cands, start)
    assert ll == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # no copies leave ll as it was
    assert np.array_equal(likelihood_readout(copies([], twin()), points,
                                             cands, start.copy()), start)


def test_likelihood_readout_scores_in_blocks():
    # half a block's entries and one more candidates leave one copy per
    # block of at most _BLOCK_ENTRIES entries; the totals match the scalar
    # loop on a sample of candidates
    M = 1 << 21
    o = make_reflection_oracle(GroupCtx(M), 12345)
    cands = np.arange(0, M, 4)[: _BLOCK_ENTRIES // 2 + 1]
    assert _BLOCK_ENTRIES // len(cands) == 1
    points = [0, M // 4, 999]

    def twin():
        return PhaseBackend(o, rng=np.random.default_rng(8))

    ll = likelihood_readout(copies([1, 3, 1, 5, 1], twin()), points,
                            cands, np.zeros(len(cands)))
    sample = slice(None, None, 1021)
    be = twin()
    ref = _scalar_readout([PhaseQubit(k, be) for k in (1, 3, 1, 5, 1)],
                          [1, 3, 1, 5, 1], M, [(t, t) for t in points],
                          cands[sample], np.zeros(len(cands[sample])))
    assert ll[sample] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("step", [1, 3])
def test_log_likelihood_columns_from_a_generator(step):
    # enough candidates that the readout builds step columns at a time
    # (the general-N readout) give, on a sample of candidates, the
    # one-matrix totals bit for bit; no copies leave ll as it was
    rng = np.random.default_rng(5)
    N = 4095
    cands = np.arange(_BLOCK_ENTRIES // step)
    assert max(1, _BLOCK_ENTRIES // len(cands)) == step
    points = rng.integers(0, N, size=40).tolist()
    start = rng.random(len(cands))
    o = make_reflection_oracle(GroupCtx(N), 1000)

    def thirty_sevens():
        be = PhaseBackend(o, rng=np.random.default_rng(9))
        return copies([37] * 40, be, [i % 5 == 0 for i in range(40)])

    blocks = likelihood_readout(thirty_sevens(), points, cands,
                                start.copy())
    sample = slice(None, None, 1021)
    matrix = likelihood_readout(thirty_sevens(), points, cands[sample],
                                start[sample].copy())
    assert np.array_equal(blocks[sample], matrix)
    assert np.array_equal(likelihood_readout(copies([], backend(N, 1)),
                                             points, cands[:3], np.zeros(3)),
                          np.zeros(3))


def test_tomography_insufficient():
    # no copies raise before anything is read; one copy leaves the
    # readout undecided, and its value None
    be = backend(27, 5)
    readout = Readout(range(3))
    assert tomography_mod_r(copies([9], be), readout) is None
    assert readout.read == 1
    with pytest.raises(InsufficientCopiesError):
        tomography_mod_r(copies([], be), Readout(range(2)))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8])
def test_tomography_reads_only_nonzero_copies(r):
    # a label-0 copy carries nothing about s: mixed in with nonzero
    # copies, ahead of them or between them, the nonzero ones decide
    N, s = r ** 3, r ** 3 - 1
    nonzero = [N // r * (1 + i % (r - 1)) for i in range(400)]
    spread = [k for pair in zip([0] * 400, nonzero) for k in pair]
    for labels in ([0] * 8 + nonzero, spread):
        assert tomography_mod_r(copies(labels, backend(N, s)),
                                Readout(range(r))) == s % r


@pytest.mark.parametrize("r", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_tomography_zero_units_add_flat_rows(r, seed):
    # copies whose unit is 0 mod r (on D_{r^3} at q = r, the labels
    # (N/r^2) u with u = 0 mod r: the multiples of N/r, 0 included) turn
    # by 0 at every reference: each is observed, one draw per copy, and
    # adds the same row to every residue, so the batch leaves the readout
    # undecided and ll flat
    N, s = r ** 3, r ** 3 - 1
    labels = [N // r * (i % r) for i in range(15)]
    be, twin = backend(N, s, seed), backend(N, s, seed)
    readout = Readout([s % r + r * t for t in range(r)])
    assert tomography_mod_r(copies(labels, be), readout) is None
    assert np.array_equal(readout.ll - readout.ll[0], np.zeros(r))
    assert readout.read == len(labels) and readout.value is None
    twin.rng.random(len(labels))
    assert be.rng.bit_generator.state == twin.rng.bit_generator.state


def _scalar_stop(qs, labels, M, refs, cands):
    # reference: _scalar_readout one copy at a time, stopped at the first
    # copy where the best candidate leads the runner-up by
    # ln((C - 1) / READOUT_DELTA).  Returns (value or None, ll, copies
    # read).
    ll, lead = np.zeros(len(cands)), math.log((len(cands) - 1) / READOUT_DELTA)
    for i, (q, x) in enumerate(zip(qs, labels)):
        ll = np.array(_scalar_readout([q], [x], M, [refs[i % len(refs)]],
                                      cands, ll))
        top = np.sort(ll)
        if top[-1] - top[-2] >= lead:
            return int(cands[np.argmax(ll)]), ll, i + 1
    return None, ll, len(qs)


@pytest.mark.parametrize("split", [[40], [1] * 40, [7, 3, 12, 18]])
def test_readout_stops_at_the_first_deciding_copy(split):
    # Z16 coordinate readout of s = 11 from copies of labels 1..9 (a
    # period prime to the 16 references, so each label meets every
    # reference), every fifth classical, observed in batches of the given
    # sizes: each batch starts where the last ended in the reference
    # cycle, the readout stops at the copy the scalar loop stops at (the
    # 15th), and once decided it is handed no more batches
    o = make_reflection_oracle(AbelianGroupSpec((4, 16)), (3, 11))
    points = [(0, t) for t in range(16)]
    ks = [1 + i % 9 for i in range(40)]
    mask = [i % 5 == 0 for i in range(40)]
    be = PhaseBackend(o, rng=np.random.default_rng(3))
    readout, at = Readout(points), 0
    for size in split:
        if readout.value is not None:
            break
        part = copies([(0, k) for k in ks[at:at + size]], be,
                      mask[at:at + size])
        readout.observe(part, part.labels[:, 1])
        at += size
    twin = PhaseBackend(o, rng=np.random.default_rng(3))
    value, ll, read = _scalar_stop(
        [PhaseQubit((0, k), twin, c) for k, c in zip(ks, mask)], ks, 16,
        list(enumerate(points)), np.arange(16))
    assert (readout.value, readout.read) == (value, read) == (11, 15)
    assert readout.ll == pytest.approx(ll, rel=1e-12, abs=1e-12)


def _ref_sequential_readout(qs, M, points, split):
    # reference for Readout: the batches of split in turn, until one
    # decides; copy i is scored at residue i mod C by
    # _ref_likelihood_readout, the per-entry formula, and the copies of
    # a batch after the deciding one are observed and ignored.  Returns
    # (value or None, ll, copies read)
    C = len(points)
    lead = math.log((C - 1) / READOUT_DELTA)
    ll, value, at = np.zeros(C), None, 0
    for size in split:
        if value is not None:
            break
        for i in range(at, at + size):
            t = i % C
            if value is not None:
                _ref_cosine_observe(qs[i], points[t])
                continue
            ll = _ref_likelihood_readout([qs[i]], M, [points[t]],
                                         np.arange(C), ll)
            top = np.sort(ll)
            if top[-1] - top[-2] >= lead:
                value, read = int(np.argmax(ll)), i + 1
        at += size
    return value, ll, read if value is not None else at


@pytest.mark.parametrize("M, split", [
    (2, [1, 2, 5, 30]), (3, [2, 1, 9, 40]), (16, [3, 1, 20, 7, 60]),
    (4093, [5, 1, 40, 7, 60, 200])])
def test_readout_table_scores_the_per_entry_formula(M, split):
    # a Readout over the residues mod M scores each copy from one (2, M)
    # table of clipped log-likelihoods per modulus, whose entries are the
    # per-entry formula's bit for bit: over random secrets, labels (zero
    # included) and classical copies, observed in batches split at
    # several points (at 4093 a block holds 16 copies, so the batches of
    # 40, 60 and 200 span blocks), ll, read and value are the per-entry
    # formula's exactly, and so is the generator state: one draw per
    # batch observed
    p = np.clip(np.cos(np.pi * (np.arange(M) / M)) ** 2, 1e-9, 1 - 1e-9)
    assert np.array_equal(phase._log_table(M)[0].reshape(2, M, 2)[1].T,
                          np.log([1 - p, p]))
    points = list(range(M))
    for seed in range(6):
        rng = np.random.default_rng([M, seed])
        count = sum(split)
        ks = rng.integers(0, M, count).tolist()
        mask = (rng.random(count) < 0.2).tolist()
        o = make_reflection_oracle(GroupCtx(M), int(rng.integers(0, M)))
        be = PhaseBackend(o, rng=np.random.default_rng(seed))
        twin = PhaseBackend(o, rng=np.random.default_rng(seed))
        readout, at = Readout(points), 0
        for size in split:
            if readout.value is not None:
                break
            readout.observe(copies(ks[at:at + size], be, mask[at:at + size]),
                            ks[at:at + size])
            at += size
        value, ll, read = _ref_sequential_readout(
            [PhaseQubit(k, twin, c) for k, c in zip(ks, mask)], M, points,
            split)
        assert (readout.value, readout.read) == (value, read)
        assert np.array_equal(readout.ll, ll)
        assert be.rng.bit_generator.state == twin.rng.bit_generator.state


def test_readout_margin_grows_with_candidates():
    # two candidates stop at a lead of ln(1 / 0.002) = 6.2, 64 at
    # ln(63 / 0.002) = 10.4; one honest r = 2 copy (a 0/1 bit against
    # the clipped 1e-9) leads by 20.7 and decides alone
    assert Readout(range(2))._lead == pytest.approx(math.log(500))
    assert Readout(range(64))._lead == pytest.approx(
        math.log(63 / READOUT_DELTA))
    be = backend(32, 21, seed=2)
    readout = Readout(range(2))
    assert readout.observe(copies([16, 16, 16], be), [1, 1, 1]) == 1
    assert readout.read == 1


@pytest.mark.parametrize("bias", [1.5, -0.1, float("nan")])
def test_backend_rejects_coin_bias_outside_unit_interval(bias):
    with pytest.raises(ValueError, match="coin_bias"):
        backend(8, 3, coin_bias=bias)


def test_tomography_rejects_radix_below_2():
    # the radix is the readout's modulus, and a readout over fewer than
    # two residues is refused before any copy reaches it
    be = backend(8, 3)
    plist = copies([4], be)
    for r in (1, 0):
        with pytest.raises(ValueError):
            tomography_mod_r(plist, Readout(range(r)))
    assert not plist.consumed


@pytest.mark.parametrize("points", [[], [0]])
def test_readout_needs_two_reference_points(points):
    # Wald's lead ln((C - 1) / READOUT_DELTA) needs a runner-up
    with pytest.raises(ValueError, match="two reference points"):
        Readout(points)


def _tomography_cases():
    """(name, backend, valid labels, a label off the multiples, j): int64
    labels on D_{3^8}, object labels on D_{3^40}, and rows of Z16 + Z9
    read on coordinate 1, each at r = 3 and q = 1."""
    N3 = 3 ** 40
    abelian = PhaseBackend(make_reflection_oracle(AbelianGroupSpec((16, 9)),
                                                  (5, 7)),
                           rng=np.random.default_rng(4))
    return [("3^8", backend(3 ** 8, 1234, seed=4), [3 ** 7, 2 * 3 ** 7],
             3 ** 7 + 1, 0),
            ("3^40", backend(N3, N3 // 5, seed=4), [N3 // 3, 2 * (N3 // 3)],
             N3 // 3 + 1, 0),
            ("Z16+Z9", abelian, [(0, 3), (7, 6)], (0, 4), 1)]


@pytest.mark.parametrize("case", range(3), ids=["3^8", "3^40", "Z16+Z9"])
def test_tomography_input_checks_fire_before_anything_is_drawn(case):
    # every input check raises before the list is consumed, the readout
    # reads anything, or anything is drawn: an empty list, a label off
    # the multiples of n_j/(q r), and q r not dividing n_j (a readout
    # spaced q = 2 on coordinate j)
    _, be, good, bad, j = _tomography_cases()[case]
    for error, labels, q in [(InsufficientCopiesError, [], 1),
                             (ValueError, good[:1] + [bad], 1),
                             (ValueError, good, 2)]:
        points = [q * t for t in range(3)]
        if not isinstance(be.oracle.ctx, GroupCtx):
            points = [(0, x) for x in points]
        state, queries = be.rng.bit_generator.state, be.oracle.queries
        plist, readout = copies(labels, be), Readout(points)
        assert (readout.j, readout.q) == (j, q)
        with pytest.raises(error):
            tomography_mod_r(plist, readout)
        assert not plist.consumed
        assert readout.read == 0 and not readout.ll.any()
        assert be.rng.bit_generator.state == state
        assert be.oracle.queries == queries


def test_tomography_reads_at_the_spacing_its_points_name():
    # on D_81 the digit d = (s // 3) mod 3 comes from copies of 9 and 18,
    # the labels (81 / (q r)) u at q = 3.  A readout over the points
    # 0, 1, 2 is spaced q = 1, where the labels must be multiples of 27:
    # it is refused before anything is drawn (with q passed separately it
    # misread 60 of these 81 secrets).  Over s mod 3 + 3 t it reads d for
    # every secret
    labels = [9, 18] * 30
    for s in range(81):
        be = backend(81, s, seed=s)
        state = be.rng.bit_generator.state
        plist = copies(labels, be)
        with pytest.raises(ValueError, match="not multiples"):
            tomography_mod_r(plist, Readout(range(3)))
        assert not plist.consumed and be.rng.bit_generator.state == state
        readout = Readout([s % 3 + 3 * t for t in range(3)])
        assert (readout.j, readout.q) == (0, 3)
        assert tomography_mod_r(plist, readout) == s // 3 % 3, s


@pytest.mark.parametrize("points", [
    [0, 0, 1], [5, 5], [(1, 2), (1, 2), (1, 3)],
    [(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2)],
    [2, 1, 0], [(0, 2), (0, 1), (0, 0)]],
    ids=["still", "still-2", "still-abelian", "two-coordinates",
         "two-coordinates-2", "downward", "downward-abelian"])
def test_readout_refuses_a_first_step_off_one_coordinate(points):
    # a readout names its coordinate and spacing by its first step: one
    # that moves nothing, moves two coordinates or moves one downward is
    # refused when the readout is built, before the list is touched or
    # anything is drawn
    o = (make_reflection_oracle(GroupCtx(27), 5) if np.ndim(points) == 1
         else make_reflection_oracle(AbelianGroupSpec((3, 9)), (1, 5)))
    be = PhaseBackend(o, rng=np.random.default_rng(4))
    state = be.rng.bit_generator.state
    plist = copies([9] * 6 if np.ndim(points) == 1 else [(0, 3)] * 6, be)
    with pytest.raises(ValueError, match="one coordinate upward"):
        tomography_mod_r(plist, Readout(points))
    assert not plist.consumed and o.queries == 0
    assert be.rng.bit_generator.state == state


def test_tomography_reads_a_coordinate_through_its_readout():
    # on Z4 + Z9 with s = (1, 5), the chain hands tomography_mod_r a
    # readout observing coordinate 1 at (s_0, t): labels (0, 3u) read
    # s_1 mod 3 = 2
    be = PhaseBackend(make_reflection_oracle(AbelianGroupSpec((4, 9)),
                                             (1, 5)),
                      rng=np.random.default_rng(4))
    readout = Readout([(1, t) for t in range(3)])
    assert (readout.j, readout.q) == (1, 1)
    assert tomography_mod_r(copies([(0, 3), (0, 6)] * 30, be), readout) == 2


def test_phase_list_measure_pm_same_law():
    N, s = 16, 9
    be = backend(N, s, seed=10)
    sample = sample_batch(be, 50000)
    labels, bits = sample.labels, measure_pm(sample)
    # label marginal uniform
    counts = np.bincount(labels, minlength=N) / 50000
    assert np.abs(counts - 1 / N).max() < 0.01
    # conditional zero-rate matches the closed form
    for k in (1, 5, 11):
        sel = bits[labels == k]
        p = math.cos(math.pi * ((k * s) % N) / N) ** 2
        assert abs((sel == 0).mean() - p) < 5 * math.sqrt(0.25 / len(sel))


def test_fault_hooks_change_the_law():
    # the verification suite's sign-fault backend hides -s
    N, s, k, t = 16, 5, 3, 2
    be = _backends(np.random.default_rng(11), 0.5, -1)(N, s)
    n = 8000
    ones = int(cosine_observe(copies([k] * n, be), t).sum())
    honest = math.cos(math.pi * (((s - t) * k) % N) / N) ** 2
    flipped = math.cos(math.pi * (((-s - t) * k) % N) / N) ** 2
    assert abs(ones / n - flipped) < 0.03
    assert abs(honest - flipped) > 0.2  # the fault is observable


@pytest.mark.parametrize("ctx, s, labels", [
    (GroupCtx(16), 5, [0, 1, 3, 8, 13]),
    (AbelianGroupSpec((4, 6)), (1, 5), [(0, 0), (1, 0), (3, 5), (2, 3)]),
])
@pytest.mark.parametrize("classical", [False, True])
def test_measure_pm_is_one_minus_observe_at_zero(ctx, s, labels, classical):
    # twin backends on one seed: draw for draw, the +/- measurement is the
    # complement of the observation against the zero slope
    twins = [PhaseBackend(make_reflection_oracle(ctx, s), rng=3)
             for _ in range(2)]
    a, b = (copies(labels * 200, be, [classical] * (200 * len(labels)))
            for be in twins)
    assert np.array_equal(measure_pm(a), 1 - cosine_observe(b, ctx.zero))
    assert (twins[0].rng.bit_generator.state
            == twins[1].rng.bit_generator.state)


def test_phase_list_is_consumed_whole():
    # take, qubits and the observations each consume the whole list; a
    # second use of any kind raises
    uses = (PhaseList.take, PhaseList.qubits, measure_pm,
            lambda p: cosine_observe(p, 3))
    for first in uses:
        for second in uses:
            sample = sample_batch(backend(16, 5), 8)
            first(sample)
            with pytest.raises(QubitConsumedError):
                second(sample)
    assert len(sample.labels) == 8 and sample.consumed


@pytest.mark.parametrize("ctx", [GroupCtx(97), GroupCtx(2 ** 70 + 5),
                                 AbelianGroupSpec((16, 9))])
def test_phase_list_columns(ctx):
    # int64 labels up to 62 bits, an object array past that, a (count,
    # rank) matrix on an abelian group; on D_N, qubits() gives the labels
    # as ints, with the corruption flags
    o = HidingOracle(ctx, ctx.zero, None, corruption_rate=Fraction(1, 3))
    be = PhaseBackend(o, rng=np.random.default_rng(9))
    sample = sample_batch(be, 50)
    assert sample.labels.dtype == (object if ctx == GroupCtx(2 ** 70 + 5)
                                   else np.int64)
    assert sample.labels.shape[1:] == (() if isinstance(ctx, GroupCtx)
                                       else (2,))
    if not isinstance(ctx, GroupCtx):
        return
    qs = sample.qubits()
    assert [q.label for q in qs] == [ctx.reduce(k)
                                     for k in sample.labels.tolist()]
    assert [q.classical for q in qs] == sample.classical.tolist()
    assert {type(q.label) for q in qs} == {type(ctx.zero)}
    assert all(q.backend is be for q in qs)


@pytest.mark.parametrize("N", [16, 1 << 40])
@pytest.mark.parametrize("corrupted", [False, True])
def test_phase_list_measure_pm_is_measure_pm_on_each(N, corrupted):
    # one rng.random(count) draw after the sample: the outcomes are those
    # of the per-qubit measure_pm on each qubit, classical qubits included
    def make():
        o = make_reflection_oracle(GroupCtx(N), 5 * N // 16 + 3)
        if corrupted:
            o = HidingOracle(o.ctx, 0, None, corruption_rate=Fraction(1, 2))
        return PhaseBackend(o, rng=np.random.default_rng(4))

    a, b = make(), make()
    bits = measure_pm(sample_batch(a, 400))
    ref = [_ref_measure_pm(q) for q in sample_batch(b, 400).qubits()]
    assert bits.tolist() == ref
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
