"""Staged sieves: list sizes, suffix matching, the parity sieve over
D_{2^n}, and the demand-sized interval sieve with quadrature readout."""

import gc
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import dhsieve.staged as staged_mod
from dhsieve.errors import SieveExhaustedError
from dhsieve.group import GroupCtx
from dhsieve.oracle import (
    SubstringInstance,
    make_reflection_oracle,
    splice_substring,
)
from dhsieve.phase import (
    PhaseBackend,
    PhaseQubit,
    combine,
    cosine_observe,
    sample_batch,
)
from dhsieve.staged import (
    _differences,
    _interval_pass,
    estimate_from_quadratures,
    interval_config,
    interval_sieve,
    match_by_suffix,
    run_general_interval,
    run_staged_parity,
    stage_windows,
    staged_config,
)


def backend(N, s, seed=0):
    return PhaseBackend(make_reflection_oracle(GroupCtx(N), s),
                        rng=np.random.default_rng(seed))


def test_schedule_initial_size():
    # n = 10 gives m = 3 and C_0 * 8^m qubits
    assert staged_config(10).initial_size == 3 * 2 ** 9


def test_staged_config_m():
    assert staged_config(2).m == 1
    assert staged_config(8).m == 3
    assert staged_config(10).m == 3
    assert staged_config(17).m == 4
    with pytest.raises(ValueError):
        staged_config(1)


def test_stage_windows_cover_and_cap():
    for n, m in ((8, 3), (12, 4), (10, 3), (2, 1)):
        ws = stage_windows(n, m)
        assert ws[0][0] == 0 and ws[-1][1] == n - 1
        for (a, b), (c, _) in zip(ws, ws[1:]):
            assert b == c
        assert all(b - a <= m for a, b in ws)


def test_match_by_suffix_frozen_example():
    qs = [SimpleNamespace(label=l) for l in (0b0100, 0b1100, 0b0110)]
    pairs, left = match_by_suffix(qs, (2, 3))
    assert len(pairs) == 1
    assert {pairs[0][0].label, pairs[0][1].label} == {0b0100, 0b1100}
    assert [q.label for q in left] == [0b0110]


def test_match_by_suffix_bounds():
    rng = np.random.default_rng(2)
    qs = [SimpleNamespace(label=int(x))
          for x in rng.integers(0, 1 << 16, size=10 ** 4)]
    pairs, left = match_by_suffix(qs, (0, 3))
    assert len(left) <= 2 ** 3
    assert 2 * len(pairs) + len(left) == 10 ** 4
    for a, b in pairs:
        assert (a.label ^ b.label) & 0b111 == 0
    assert match_by_suffix([], (0, 3)) == ([], [])


def test_stage_invariant_trailing_zeros():
    # white-box pass over one sieve stage sequence: after matching
    # window (lo, hi) and keeping difference-form results, survivors are
    # divisible by 2^hi
    n, N = 8, 256
    be = backend(N, 77, seed=3)
    current = sample_batch(be, 1536)
    for lo, hi in stage_windows(n, 3):
        pairs, _ = match_by_suffix(current, (lo, hi))
        nxt = []
        for kq, lq in pairs:
            out = combine(kq, lq)
            if out.minus_branch or (2 * lq.label) % N == 0:
                nxt.append(out)
        for q in nxt:
            assert q.label % (1 << hi) == 0
        current = nxt
    assert all(q.label in (0, 128) for q in current)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10])
def test_staged_parity_correct(n):
    rng = np.random.default_rng(n)
    hits = trials = 0
    for _ in range(12):
        s = int(rng.integers(0, 1 << n))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), s), rng=rng)
        q0 = be.oracle.queries
        try:
            bit, st = run_staged_parity(be, n)
        except SieveExhaustedError:
            continue
        trials += 1
        hits += bit == s % 2
        cap = 3 * 2 ** (3 * staged_config(n).m) + 64
        assert be.oracle.queries - q0 <= cap
    assert trials > 0 and hits == trials


def test_differences_batched_coins_match_reference_loop():
    # one stage through _differences (one coin draw for the stage) against
    # one combine(a, b) per pair (one draw each) on a twin backend; the
    # spliced oracle corrupts a quarter of the qubits
    def stage_pairs():
        o = splice_substring(SubstringInstance(256, 100), 36)
        be = PhaseBackend(o, rng=np.random.default_rng(11))
        return match_by_suffix(sample_batch(be, 1536), (0, 3))[0], be

    pairs, be = stage_pairs()
    ref_pairs, ref_be = stage_pairs()
    got = list(_differences(pairs, be))
    ref = []
    for kq, lq in ref_pairs:
        out = combine(kq, lq)
        if out.minus_branch or (2 * lq.label) % 256 == 0:
            ref.append(out)
    key = lambda q: (q.label, q.minus_branch, q.classical)
    assert [key(q) for q in got] == [key(q) for q in ref]
    assert any(q.classical for q in got) and not all(q.classical for q in got)
    assert be.rng.random() == ref_be.rng.random()


def test_staged_parity_pinned_record():
    # a change to any draw of the sieve moves these numbers
    be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << 12), 1234),
                      rng=np.random.default_rng(12))
    bit, st = run_staged_parity(be, 12)
    assert bit == 0 and be.oracle.queries == 12288
    assert st.list_sizes == [12288, 3031, 773, 228]


def _count_sieve_calls(monkeypatch):
    """Replace staged's combine and match_by_suffix by counting wrappers,
    on the module binding the sieves call, the way the benchmark's layer
    tracer does; the sieves must make one combine call per pair."""
    seen = {"combines": 0, "minus": 0, "matched": 0, "stage_pairs": []}
    orig_combine = staged_mod.combine
    orig_match = staged_mod.match_by_suffix
    orig_differences = staged_mod._differences

    def counting_combine(*args, **kwargs):
        out = orig_combine(*args, **kwargs)
        seen["combines"] += 1
        seen["minus"] += bool(out.minus_branch)
        return out

    def counting_match(*args, **kwargs):
        out = orig_match(*args, **kwargs)
        seen["matched"] += len(out[0])
        return out

    def counting_differences(pairs, backend):
        seen["stage_pairs"].append(len(pairs))
        return orig_differences(pairs, backend)

    monkeypatch.setattr(staged_mod, "combine", counting_combine)
    monkeypatch.setattr(staged_mod, "match_by_suffix", counting_match)
    monkeypatch.setattr(staged_mod, "_differences", counting_differences)
    return seen


def _assert_fair_coin(seen):
    n = seen["combines"]
    assert n > 0
    assert abs(seen["minus"] / n - 0.5) <= 6 * 0.5 / math.sqrt(n)


def test_staged_parity_calls_combine_per_pair(monkeypatch):
    n = 12
    make = lambda: PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), 1234),
                                rng=np.random.default_rng(12))
    ref_bit, ref_st = run_staged_parity(make(), n)
    seen = _count_sieve_calls(monkeypatch)
    bit, st = run_staged_parity(make(), n)
    assert len(seen["stage_pairs"]) == len(stage_windows(n, staged_config(n).m))
    assert seen["combines"] == seen["matched"] == sum(seen["stage_pairs"])
    _assert_fair_coin(seen)
    assert (bit, st.list_sizes) == (ref_bit, ref_st.list_sizes)


def test_interval_sieve_calls_combine_per_pair(monkeypatch):
    N = 360
    make = lambda: PhaseBackend(make_reflection_oracle(GroupCtx(N), 123),
                                rng=np.random.default_rng(5))
    ref_ones, ref_st = interval_sieve(make(), 24)
    # the first stage's pairs, counted from a twin backend's first pass:
    # every bucket of normalized labels (0 and 1 routed out) pairs all
    # but one
    m, size, widths = interval_config(N)
    labels = [min(q.label, N - q.label) for q in sample_batch(make(), size)]
    buckets = Counter(k // widths[0] for k in labels if k > 1)
    seen = _count_sieve_calls(monkeypatch)
    be = make()
    ones, st = interval_sieve(be, 24)
    passes = be.oracle.queries // size
    assert len(seen["stage_pairs"]) == passes * m
    assert seen["stage_pairs"][0] == sum(c // 2 for c in buckets.values())
    assert seen["combines"] == sum(seen["stage_pairs"]) and seen["matched"] == 0
    _assert_fair_coin(seen)
    assert st.list_sizes == ref_st.list_sizes
    assert len(ones) == len(ref_ones)


def test_staged_parity_group_mismatch():
    with pytest.raises(ValueError):
        run_staged_parity(backend(12, 5), 4)


@pytest.fixture
def gc_state():
    """Restore the collector state a test found, whatever it sets."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _record_gc_in_differences(monkeypatch, exhaust=False):
    """Wrap staged._differences to note the collector state inside the
    sieve; with exhaust, every stage yields nothing."""
    seen = []
    orig = staged_mod._differences

    def recording(pairs, backend):
        seen.append(gc.isenabled())
        return iter(()) if exhaust else orig(pairs, backend)

    monkeypatch.setattr(staged_mod, "_differences", recording)
    return seen


def test_staged_parity_pauses_gc_and_restores_it(monkeypatch, gc_state):
    gc.enable()
    seen = _record_gc_in_differences(monkeypatch)
    run_staged_parity(backend(1 << 8, 77), 8)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_staged_parity_restores_gc_after_exhaustion(monkeypatch, gc_state):
    gc.enable()
    seen = _record_gc_in_differences(monkeypatch, exhaust=True)
    with pytest.raises(SieveExhaustedError):
        run_staged_parity(backend(1 << 8, 77), 8)
    assert seen == [False]
    assert gc.isenabled()


def test_staged_parity_leaves_disabled_gc_off(gc_state):
    gc.disable()
    run_staged_parity(backend(1 << 8, 77), 8)
    assert not gc.isenabled()


def test_unbiased_top_label():
    # among final-list labels, 2^(n-1) vs 0 is a fair coin
    n, N = 8, 256
    rng = np.random.default_rng(4)
    tops = finals = 0
    for _ in range(40):
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), 99), rng=rng)
        current = sample_batch(be, 1536)
        for lo, hi in stage_windows(n, 3):
            pairs, _ = match_by_suffix(current, (lo, hi))
            current = [out for kq, lq in pairs
                       for out in [combine(kq, lq)]
                       if out.minus_branch or (2 * lq.label) % N == 0]
        finals += len(current)
        tops += sum(q.label == 128 for q in current)
    frac = tops / finals
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / finals)


def test_interval_config():
    m, size, widths = interval_config(1000)
    assert m == math.ceil(math.sqrt(math.log2(1000) - 2))
    assert size == 3 * 4 ** m
    assert len(widths) == m


def test_interval_widths_pinned():
    assert interval_config(360)[2] == [32, 8, 2]
    assert interval_config(4095)[2] == [256, 64, 8, 2]
    assert interval_config(100001)[2] == [4096, 256, 16, 2]


@pytest.mark.parametrize("N", [3, 45, 360, 1000, 4095, 65535, 100001])
def test_interval_widths_shrink_to_two(N):
    m, _, widths = interval_config(N)
    assert len(widths) == m
    assert all(w & (w - 1) == 0 for w in widths)
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert widths[-1] == 2
    if N >= 8:
        # stage 0 splits the half range [0, N/2] into at least two buckets
        assert (N // 2) // widths[0] >= 1


def test_interval_sieve_yields_psi1():
    for N in (360, 4095):
        for want in (12, 24):
            be = backend(N, 123, seed=5)
            q0 = be.oracle.queries
            ones, st = interval_sieve(be, want)
            assert len(ones) >= want
            assert all(q.label == 1 and not q.consumed for q in ones)
            # whole passes only
            assert (be.oracle.queries - q0) % interval_config(N)[1] == 0


def test_interval_sieve_one_record_per_run():
    # want 100 at N = 360 takes several passes; the record sums their
    # stage sizes, as a twin backend running the passes one by one shows
    N = 360
    m, size, widths = interval_config(N)
    be = backend(N, 123, seed=8)
    q0 = be.oracle.queries
    ones, st = interval_sieve(be, 100)
    passes, rest = divmod(be.oracle.queries - q0, size)
    twin, twin_ones, totals = backend(N, 123, seed=8), [], [0] * (m + 1)
    for _ in range(passes):
        sizes = _interval_pass(twin, size, widths, twin_ones)
        totals = [t + k for t, k in zip(totals, sizes)]
    assert rest == 0 and twin.oracle.queries == be.oracle.queries - q0
    assert passes > 1 and len(twin_ones) == len(ones)
    assert st.list_sizes == totals and len(st.list_sizes) == m + 1
    assert st.survival_ratios == [b / a if a else 0.0
                                  for a, b in zip(totals, totals[1:])]


def test_interval_sieve_exhausts_after_max_passes(monkeypatch):
    monkeypatch.setattr(staged_mod, "_interval_pass",
                        lambda backend, size, widths, ones: [0] * 4)
    with pytest.raises(SieveExhaustedError):
        interval_sieve(backend(360, 5), 1)
    with pytest.raises(ValueError):
        interval_sieve(backend(360, 5), 0)


@pytest.mark.parametrize("N, s", [(360, 123), (4095, 1000)])
def test_interval_sieve_psi1_cosine_law(N, s):
    # cosine observations against slope 0 on the returned copies, pooled
    # over seeds, follow (1 + cos(2 pi s / N)) / 2
    hits = total = 0
    for seed in range(12):
        ones, _ = interval_sieve(backend(N, s, seed=seed), 24)
        hits += sum(cosine_observe(q, 0) for q in ones)
        total += len(ones)
    p = (1 + math.cos(2 * math.pi * s / N)) / 2
    assert abs(hits / total - p) <= 6 * math.sqrt(p * (1 - p) / total)


def test_general_interval_estimate_quality():
    # circular error <= N/4 in at least 2/3 of trials
    N = 1000
    rng = np.random.default_rng(6)
    good = trials = 0
    for _ in range(45):
        s = int(rng.integers(0, N))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
        try:
            est, _ = run_general_interval(be)
        except SieveExhaustedError:
            continue
        trials += 1
        good += min((est - s) % N, (s - est) % N) <= N / 4
    assert trials >= 40
    assert good / trials >= 2 / 3


def test_general_interval_zero_secret():
    be = backend(512, 0, seed=7)
    est, _ = run_general_interval(be)
    assert min(est, 512 - est) <= 512 // 8


def test_quadrature_estimator_exact_bias():
    # 4,000 psi_1 copies put the observed frequencies close enough to the
    # exact biases that the readout returns every slope exactly, at an
    # even N (tq = N // 4 = 10) and an odd one
    rng = np.random.default_rng(3)
    for N in (40, 45):
        for s in range(N):
            be = PhaseBackend(make_reflection_oracle(GroupCtx(N), s), rng=rng)
            ones = [PhaseQubit(1, be) for _ in range(4000)]
            assert estimate_from_quadratures(ones, N) == s, (N, s)
