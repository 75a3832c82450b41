"""Phase qubits and measurements: single-use discipline, extraction label
arithmetic, and measurement laws cross-checked against the dense state
vectors (an independent computation path)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dhsieve.errors import (
    BackendMismatchError,
    InsufficientCopiesError,
    QubitConsumedError,
)
from dhsieve.group import AbelianGroupSpec, GroupCtx, unit_for_odd_part
from dhsieve.harness import _backends
from dhsieve.oracle import (
    HidingOracle,
    make_reflection_oracle,
    make_trivial_oracle,
)
from dhsieve.phase import (
    PhaseBackend,
    PhaseQubit,
    combine,
    cosine_observe,
    likelihood_readout,
    measure_pm,
    negate_label,
    PhaseList,
    sample_batch,
    sample_phase_qubit,
    tomography_copies_needed,
    tomography_mod_r,
)
from dhsieve.statevec import cosine_overlap_sim, psi_vector


def backend(N, s, seed=0, **kw):
    return PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                        rng=np.random.default_rng(seed), **kw)


def test_single_use():
    be = backend(16, 5)
    q = sample_phase_qubit(be)
    measure_pm(q)
    with pytest.raises(QubitConsumedError):
        measure_pm(q)
    q2, q3 = sample_batch(be, 2).qubits()
    combine(q2, q3)
    with pytest.raises(QubitConsumedError):
        cosine_observe(q2, 0)


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
    measure_pm(used)
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
        [r] = sample_batch(b, 1).qubits()
        assert (q.label, q.classical) == (r.label, r.classical)
        assert type(q.classical) is bool and type(q.label) is type(r.label)
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
    zeros = sum(measure_pm(PhaseQubit(k, be)) == 0 for _ in range(n))
    p = psi_vector(N, s, k).fidelity(psi_vector(N, 0, k))
    assert abs(zeros / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_cosine_observe_law_vs_dense_states():
    N, s, k, t = 24, 7, 5, 3
    be = backend(N, s, seed=5)
    n = 20000
    ones = sum(cosine_observe(PhaseQubit(k, be), t) for _ in range(n))
    p = cosine_overlap_sim(N, k, s, t)
    assert abs(ones / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_corrupted_qubits_are_coins():
    be = PhaseBackend(make_trivial_oracle(GroupCtx(16)),
                      rng=np.random.default_rng(6))
    qs = sample_batch(be, 4000).qubits()
    assert all(q.classical for q in qs)
    ones = sum(measure_pm(q) for q in qs)
    assert abs(ones / 4000 - 0.5) < 4 * math.sqrt(0.25 / 4000)


def test_tomography_r2_parity():
    for s in (5, 12):
        be = backend(32, s, seed=8)
        qs = [PhaseQubit(16, be) for _ in range(25)]
        assert tomography_mod_r(qs, 2) == s % 2


def test_tomography_r3():
    N = 3 ** 4
    for s in (17, 30, 55):
        be = backend(N, s, seed=9)
        need = tomography_copies_needed(3)
        qs = [PhaseQubit((N // 3) * (1 + i % 2), be) for i in range(need)]
        assert tomography_mod_r(qs, 3) == s % 3


@pytest.mark.parametrize("n", [30, 38])
def test_tomography_exact_past_int64(n):
    # at N = 3^n a label times a reference (about 3^(2n)) wraps int64, so
    # the turn must be reduced in exact integers: with exact turns all 40
    # cases read s mod 3 right, with an int64 turn 11 of the 20 at n = 30
    # read it wrong.
    N, need = 3 ** n, tomography_copies_needed(3)
    for i in range(20):
        rng = np.random.default_rng([n, i])
        s = int(rng.integers(0, N))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
        qs = [PhaseQubit((N // 3) * int(w), be)
              for w in rng.integers(1, 3, size=need)]
        assert tomography_mod_r(qs, 3) == s % 3, (n, i)


def _scalar_readout(qs, labels, M, refs, cands, start):
    # reference: one observation and one candidate at a time, in Python
    # ints, with the same clip
    ll = [float(v) for v in start]
    for i, (q, x) in enumerate(zip(qs, labels)):
        t, point = refs[i % len(refs)]
        bit = cosine_observe(q, point)
        for j, c in enumerate(cands):
            p = math.cos(math.pi * (x * (int(c) - t) % M) / M) ** 2
            p = min(1 - 1e-9, max(1e-9, p))
            ll[j] += math.log(p) if bit else math.log(1 - p)
    return ll


def _readout_shapes():
    """(oracle, qubit labels, readout labels, M, refs, candidates, start)
    for the three callers; every fifth copy is classical, a fair coin, so
    turns of 0 and 1/2 meet both bits and hit the clip."""
    rng = np.random.default_rng(4)
    # residue tomography: labels multiples of N/3, candidates Z/3
    N = 3 ** 5
    labels = [(N // 3) * (1 + i % 2) for i in range(31)]
    yield (make_reflection_oracle(GroupCtx(N), 100), labels, labels, N,
           [(t, t) for t in (0, 40, 120, 200)], np.arange(3), np.zeros(3))
    # abelian coordinate 1 of Z/4 + Z/16: labels (0, k), candidates Z/16
    ks = [1 + i % 8 for i in range(24)]
    yield (make_reflection_oracle(AbelianGroupSpec((4, 16)), (3, 5)),
           [(0, k) for k in ks], ks, 16,
           [(t, (0, t)) for t in (0, 4, 5)], np.arange(16), np.zeros(16))
    # a general-N round: psi_1 copies, candidates multiplied by u^-1, and
    # the running ll of earlier rounds
    N = 360
    uinv = pow(unit_for_odd_part(N, 2), -1, N)
    cands = np.arange(40, 200)
    yield (make_reflection_oracle(GroupCtx(N), 123), [1] * 40, [1] * 40, N,
           [(t, t) for t in (uinv * 120 % N, 180, 300)], uinv * cands % N,
           rng.random(len(cands)))


@pytest.mark.parametrize("shape", list(_readout_shapes()),
                         ids=["tomography", "coordinate", "general"])
def test_likelihood_readout_matches_scalar_loop(shape):
    o, qlabels, labels, M, refs, cands, start = shape

    def copies():
        be = PhaseBackend(o, rng=np.random.default_rng(7))
        return [PhaseQubit(k, be, classical=i % 5 == 0)
                for i, k in enumerate(qlabels)]

    ll = likelihood_readout(copies(), labels, M, refs, cands, start.copy())
    ref = _scalar_readout(copies(), labels, M, refs, cands, start)
    assert ll == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # no copies leave ll as it was
    assert np.array_equal(likelihood_readout([], [], M, refs, cands,
                                             start.copy()), start)


def test_likelihood_readout_scores_in_blocks():
    # 2^19 + 1 candidates leave one copy per block of at most 2^20
    # entries; the totals match the scalar loop on a sample of candidates
    M = 1 << 21
    o = make_reflection_oracle(GroupCtx(M), 12345)
    cands = np.arange(0, M, 4)[: (1 << 19) + 1]
    refs = [(t, t) for t in (0, M // 4, 999)]

    def copies():
        be = PhaseBackend(o, rng=np.random.default_rng(8))
        return [PhaseQubit(k, be) for k in (1, 3, 1, 5, 1)]

    ll = likelihood_readout(copies(), [1, 3, 1, 5, 1], M, refs, cands)
    sample = slice(None, None, 4099)
    ref = _scalar_readout(copies(), [1, 3, 1, 5, 1], M, refs, cands[sample],
                          np.zeros(len(cands[sample])))
    assert ll[sample] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("step", [1, 3])
def test_log_likelihood_columns_from_a_generator(step):
    # enough candidates that the readout builds step columns at a time
    # (the general-N readout) give, on a sample of candidates, the
    # one-matrix totals bit for bit; no copies leave ll as it was
    rng = np.random.default_rng(5)
    N = 4095
    cands = np.arange((1 << 20) // step)
    assert max(1, (1 << 20) // len(cands)) == step
    refs = [(t, t) for t in rng.integers(0, N, size=40).tolist()]
    start = rng.random(len(cands))
    o = make_reflection_oracle(GroupCtx(N), 1000)

    def copies():
        be = PhaseBackend(o, rng=np.random.default_rng(9))
        return [PhaseQubit(37, be, classical=i % 5 == 0) for i in range(40)]

    blocks = likelihood_readout(copies(), [37] * 40, N, refs, cands,
                                start.copy())
    sample = slice(None, None, 4099)
    matrix = likelihood_readout(copies(), [37] * 40, N, refs, cands[sample],
                                start[sample].copy())
    assert np.array_equal(blocks[sample], matrix)
    assert np.array_equal(likelihood_readout([], [], N, refs, cands[:3],
                                             np.zeros(3)), np.zeros(3))


def test_tomography_insufficient():
    be = backend(27, 5)
    with pytest.raises(InsufficientCopiesError):
        tomography_mod_r([PhaseQubit(9, be)], 3)
    with pytest.raises(InsufficientCopiesError):
        tomography_mod_r([], 2)


@pytest.mark.parametrize("bias", [1.5, -0.1, float("nan")])
def test_backend_rejects_coin_bias_outside_unit_interval(bias):
    with pytest.raises(ValueError, match="coin_bias"):
        backend(8, 3, coin_bias=bias)


def test_tomography_rejects_radix_below_2():
    be = backend(8, 3)
    for r in (1, 0):
        with pytest.raises(ValueError):
            tomography_mod_r([PhaseQubit(4, be)], r)


def test_phase_list_measure_pm_same_law():
    N, s = 16, 9
    be = backend(N, s, seed=10)
    sample = sample_batch(be, 50000)
    labels, bits = sample.labels, sample.measure_pm()
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
    ones = sum(cosine_observe(PhaseQubit(k, be), t) for _ in range(n))
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
    for _ in range(200):
        for k in labels:
            q, q2 = (PhaseQubit(k, be, classical) for be in twins)
            assert measure_pm(q) == 1 - cosine_observe(q2, ctx.zero)
    assert (twins[0].rng.bit_generator.state
            == twins[1].rng.bit_generator.state)


def test_phase_list_is_consumed_whole():
    # take, qubits and measure_pm each consume the whole list; a second
    # use of any kind raises
    uses = (PhaseList.take, PhaseList.qubits, PhaseList.measure_pm)
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
    # rank) matrix on an abelian group; qubits() gives the labels as ints
    # or tuples, with the corruption flags
    o = HidingOracle(ctx, ctx.zero, None, corruption_rate=Fraction(1, 3))
    be = PhaseBackend(o, rng=np.random.default_rng(9))
    sample = sample_batch(be, 50)
    assert sample.labels.dtype == (object if ctx == GroupCtx(2 ** 70 + 5)
                                   else np.int64)
    assert sample.labels.shape[1:] == (() if isinstance(ctx, GroupCtx)
                                       else (2,))
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
    # of measure_pm on each qubit fed the same uniforms, classical qubits
    # included
    def make():
        o = make_reflection_oracle(GroupCtx(N), 5 * N // 16 + 3)
        if corrupted:
            o = HidingOracle(o.ctx, 0, None, corruption_rate=Fraction(1, 2))
        return PhaseBackend(o, rng=np.random.default_rng(4))

    a, b = make(), make()
    sample = sample_batch(a, 400)
    bits = sample.measure_pm()
    qs = sample_batch(b, 400).qubits()
    u = b.rng.random(400)
    ref = []
    for q, x in zip(qs, u.tolist()):
        p_plus = 0.5 if q.classical else math.cos(
            math.pi * q.backend.oracle._phase_turns(q.label)) ** 2
        ref.append(int(x >= p_plus))
    assert bits.tolist() == ref
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
