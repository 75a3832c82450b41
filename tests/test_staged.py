"""Staged sieves: list sizes, suffix matching, the parity sieve over
D_{2^n}, and the demand-sized interval sieve with quadrature readout."""

import dataclasses
import gc
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dhsieve.staged as staged_mod
from dhsieve.errors import InsufficientCopiesError, SieveExhaustedError
from dhsieve.group import GroupCtx
from dhsieve.oracle import (
    HidingOracle,
    SubstringInstance,
    make_reflection_oracle,
    splice_substring,
)
from dhsieve.phase import (
    PhaseBackend,
    PhaseList,
    combine,
    cosine_observe,
    measure_pm,
    sample_batch,
)
from dhsieve.staged import (
    MAX_PASSES,
    SieveStats,
    _differences,
    _interval_pass,
    _parity_pass,
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
    # n = 10 takes m = 5 at 4 labels per bucket: passes of 4 * 2^5 = 128
    # labels, and a call makes at most MAX_PASSES = 16 of them, 2,048
    # labels; the layout is all a StagedConfig holds
    cfg = staged_config(10)
    assert (cfg.m, cfg.pass_size, MAX_PASSES * cfg.pass_size) \
        == (5, 128, 2048)
    assert [f.name for f in dataclasses.fields(cfg)] == ["m", "pass_size"]


def test_staged_config_m():
    # the measured layouts: n = 2 takes m = 2, as m = 1's cap of 24 labels
    # leaves more than 1 in 1,000 calls exhausted; n = 8, 10 and 17 take
    # m = 4, 5 and 7, one to three bits wider than ceil(sqrt(n - 1))
    assert staged_config(2).m == 2
    assert staged_config(8).m == 4
    assert staged_config(10).m == 5
    assert staged_config(17).m == 7
    with pytest.raises(ValueError):
        staged_config(1)


def test_parity_layouts_cover_fit_and_fill():
    # every n to 60, and the extrapolated layouts past it: the windows
    # cover bits 0..n-2 in order, none wider than m; a pass fits the
    # paper's list size C_0 * 8^m and puts at least 4 labels in each
    # first-stage bucket
    for n in range(2, 81):
        cfg = staged_config(n)
        ws = stage_windows(n, cfg.m)
        assert ws[0][0] == 0 and ws[-1][1] == n - 1, n
        assert all(b == c for (_, b), (c, _) in zip(ws, ws[1:])), n
        assert all(0 < b - a <= cfg.m for a, b in ws), n
        assert 4 << cfg.m <= cfg.pass_size <= 3 * 8 ** cfg.m, n
        assert cfg.pass_size % (1 << cfg.m) == 0, n
    # past n = 60, n takes n - 5's layout one bit wider
    for n in range(61, 81):
        a, b = staged_config(n - 5), staged_config(n)
        assert (b.m, b.pass_size) == (a.m + 1, 2 * a.pass_size), n


def test_staged_parity_holds_its_copy_within_the_cap():
    # one seeded call at each n = 2..40 ends holding psi_{2^(n-1)}: the
    # right bit, read after whole passes, within MAX_PASSES of them
    rng = np.random.default_rng(40)
    for n in range(2, 41):
        cfg = staged_config(n)
        s = int(rng.integers(0, 1 << n))
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), s), rng=rng)
        bit, st = run_staged_parity(be, n)
        passes, rest = divmod(be.oracle.queries, cfg.pass_size)
        assert bit == s % 2, n
        assert rest == 0 and 1 <= passes <= MAX_PASSES, n
        assert st.list_sizes[0] == be.oracle.queries, n


@pytest.mark.parametrize("n", [9, 14, 20])
def test_parity_stage_survivors_match_bucket_occupancy(n):
    # every stage, the sparse later ones too, against its expectation: L
    # labels in 2^w buckets (window (lo, hi), w = hi - lo) leave
    # (L - 2^(w-1) (1 - (1 - 2^(1-w))^L)) / 2 pairs, and a pair survives
    # on the minus branch (1/2) or on the plus branch at 2l = 0 (labels
    # are multiples of 2^lo, so 2^(1-n+lo) of them).  Pooled over 100
    # seeded passes; survivors given L are a sum of pair coins, whose
    # variance is at most about their mean, so each stage is held to
    # 4 sigma
    cfg = staged_config(n)
    windows = stage_windows(n, cfg.m)
    kept, expected = Counter(), Counter()
    for i in range(100):
        be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), 0),
                          rng=np.random.default_rng([n, i]))
        _, st = _parity_pass(be, cfg.pass_size, windows, 1 << (n - 1))
        for j, (L, out) in enumerate(zip(st.list_sizes, st.list_sizes[1:])):
            lo, hi = windows[j]
            w = hi - lo
            pairs = (L - 2 ** (w - 1) * (1 - (1 - 2 ** (1 - w)) ** L)) / 2
            expected[j] += pairs * (1 + 2.0 ** (1 - n + lo)) / 2
            kept[j] += out
    assert sorted(kept) == list(range(len(windows)))
    for j in kept:
        assert abs(kept[j] - expected[j]) <= 4 * math.sqrt(expected[j]), (
            j, kept[j], expected[j])


def test_stage_windows_cover_and_cap():
    for n, m in ((8, 3), (12, 4), (10, 3), (2, 1)):
        ws = stage_windows(n, m)
        assert ws[0][0] == 0 and ws[-1][1] == n - 1
        for (a, b), (c, _) in zip(ws, ws[1:]):
            assert b == c
        assert all(b - a <= m for a, b in ws)


def _ref_stage_windows(n, m):
    # the windows as a loop: from bit 0, m bits at a time, capped at n - 1
    windows = []
    lo = 0
    while lo < n - 1:
        hi = min(lo + m, n - 1)
        windows.append((lo, hi))
        lo = hi
    return windows


def test_stage_windows_match_the_loop():
    for n in range(120):
        for m in range(1, 40):
            assert stage_windows(n, m) == _ref_stage_windows(n, m), (n, m)


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
    current = sample_batch(be, 1536).qubits()
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
        return match_by_suffix(sample_batch(be, 1536).qubits(), (0, 3))[0], be

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
    # n = 12 takes m = 6, windows (0, 6) and (6, 11), and passes of
    # 4 * 2^6 = 256 labels; the first pass holds the copy
    assert bit == 0 and be.oracle.queries == 256
    assert st.list_sizes == [256, 51, 10]


def _parity_pass_size(n):
    return staged_config(n).pass_size


def test_staged_parity_never_exceeds_the_full_list():
    # every call stays within MAX_PASSES whole passes of queries (a call
    # that reaches the pass cap spends all of them: see the exhaustion
    # test below)
    rng = np.random.default_rng(21)
    for n in range(2, 15):
        cap = MAX_PASSES * _parity_pass_size(n)
        for _ in range(8):
            s = int(rng.integers(0, 1 << n))
            be = PhaseBackend(make_reflection_oracle(GroupCtx(1 << n), s),
                              rng=rng)
            try:
                run_staged_parity(be, n)
            except SieveExhaustedError:
                pass
            assert 0 < be.oracle.queries <= cap, n


@pytest.mark.parametrize("n, seed, want_passes", [(6, 1, 1), (9, 14, 3),
                                                  (12, 3, 1)])
def test_staged_parity_stops_at_the_first_target_pass(n, seed, want_passes):
    # a twin backend running the passes one by one: every pass before the
    # last ends without psi_{2^(n-1)}, the last ends with it, and the
    # call's record sums their stage sizes (seed 14 at n = 9 takes three)
    size, m = _parity_pass_size(n), staged_config(n).m
    make = lambda: backend(1 << n, 45, seed=seed)
    be = make()
    bit, st = run_staged_parity(be, n)
    passes, rest = divmod(be.oracle.queries, size)
    assert rest == 0 and passes == want_passes <= MAX_PASSES
    twin, totals = make(), SieveStats()
    for k in range(passes):
        got, pass_st = _parity_pass(twin, size, stage_windows(n, m),
                                    1 << (n - 1))
        assert (got is not None) == (k == passes - 1)
        totals += pass_st
    assert twin.oracle.queries == be.oracle.queries
    assert st.list_sizes == totals.list_sizes
    assert bit == 45 % 2


def test_staged_parity_exhausts_after_the_pass_cap(monkeypatch):
    # every stage yields nothing: MAX_PASSES passes, each ended by its
    # first stage, then SieveExhaustedError carrying their summed stats.
    # n = 8 takes m = 4 and passes of 64 labels: 16 passes, 1,024 labels
    n = 8
    size = _parity_pass_size(n)
    cap = MAX_PASSES * size
    monkeypatch.setattr(staged_mod, "_differences",
                        lambda pairs, backend: iter(()))
    be = backend(1 << n, 77)
    with pytest.raises(SieveExhaustedError) as info:
        run_staged_parity(be, n)
    assert (size, cap) == (64, 1024)
    assert be.oracle.queries == cap
    assert info.value.stats.list_sizes == [cap, 0]



def _d2_draws(backend):
    """D_2 as MAX_PASSES one-label draws, measuring the first psi_1."""
    for _ in range(MAX_PASSES):
        sample = sample_batch(backend, 1)
        if sample.labels[0] == 1:
            return measure_pm(sample)[0]
    raise SieveExhaustedError("no psi_1 sampled in D_2")


@pytest.mark.parametrize("s", [0, 1])
def test_staged_parity_d2_is_one_label_passes(s):
    # n = 1 runs one-label parity passes: the same bit, queries and
    # generator state as a twin backend drawing one label at a time
    for seed in range(12):
        be, twin = backend(2, s, seed=seed), backend(2, s, seed=seed)
        bit, st = run_staged_parity(be, 1)
        assert bit == _d2_draws(twin) == s
        assert be.oracle.queries == twin.oracle.queries
        assert st.list_sizes == [be.oracle.queries]
        assert be.rng.random() == twin.rng.random()


def test_staged_parity_d2_exhausts_after_max_passes(monkeypatch):
    # label 1 never appears: MAX_PASSES = 16 passes of one query each,
    # then SieveExhaustedError carrying their summed stats
    real = staged_mod.sample_batch

    def zeros(backend, count):
        sample = real(backend, count)
        return PhaseList(0 * sample.labels, sample.classical, backend)

    monkeypatch.setattr(staged_mod, "sample_batch", zeros)
    be = backend(2, 1)
    with pytest.raises(SieveExhaustedError) as info:
        run_staged_parity(be, 1)
    assert be.oracle.queries == 16
    assert info.value.stats.list_sizes == [16]

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
    be = make()
    bit, st = run_staged_parity(be, n)
    passes = be.oracle.queries // _parity_pass_size(n)
    assert len(seen["stage_pairs"]) == passes * len(
        stage_windows(n, staged_config(n).m))
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
    labels = [min(k, N - k) for k in sample_batch(make(), size).labels.tolist()]
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
    # one pass per reading, each ended by its emptied first stage
    assert seen == [False] * MAX_PASSES
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
        current = sample_batch(be, 1536).qubits()
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
            assert ones.labels.tolist() == [1] * len(ones)
            assert not ones.consumed
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
        pass_st = _interval_pass(twin, size, widths, twin_ones)
        totals = [t + k for t, k in zip(totals, pass_st.list_sizes)]
    assert rest == 0 and twin.oracle.queries == be.oracle.queries - q0
    assert passes > 1 and len(twin_ones) == len(ones)
    assert st.list_sizes == totals and len(st.list_sizes) == m + 1
    assert st.survival_ratios == [b / a if a else 0.0
                                  for a, b in zip(totals, totals[1:])]


def test_interval_sieve_joins_its_passes_in_order():
    # at N = 7 one 12-label pass holds about 4 psi_1 copies, so 24 copies
    # take several passes: the call returns each pass's copies, one pass
    # after another, from the draws of the same passes run one by one.
    # Every copy is psi_1, so a half-corrupted oracle's classical flags
    # tell the order
    N = 7

    def make():
        o = HidingOracle(GroupCtx(N), 3, None, corruption_rate=Fraction(1, 2))
        return PhaseBackend(o, rng=np.random.default_rng(4))

    _, size, widths = interval_config(N)
    be = make()
    ones, st = interval_sieve(be, 24)
    labels, classical = ones.labels, ones.classical
    twin, parts = make(), []
    while sum(map(len, parts)) < 24:
        parts.append([])
        _interval_pass(twin, size, widths, parts[-1])
    assert len(parts) > 2 and len(st.list_sizes) == len(widths) + 1
    assert labels.tolist() == [q.label for q in sum(parts, [])]
    assert classical.tolist() == [q.classical for q in sum(parts, [])]
    assert 0 < classical.sum() < len(classical)
    assert classical.tolist() != classical[::-1].tolist()
    assert be.rng.bit_generator.state == twin.rng.bit_generator.state
    assert be.oracle.queries == twin.oracle.queries == len(parts) * size


def test_interval_sieve_exhausts_after_max_passes(monkeypatch):
    calls = []
    monkeypatch.setattr(staged_mod, "_interval_pass",
                        lambda backend, size, widths, ones:
                        calls.append(size) or SieveStats([0] * 4))
    with pytest.raises(SieveExhaustedError):
        interval_sieve(backend(360, 5), 1)
    assert len(calls) == MAX_PASSES
    with pytest.raises(ValueError):
        interval_sieve(backend(360, 5), 0)


def test_sieve_stats_sum_by_stage():
    a = SieveStats([10, 4, 1], combines=3, work=7)
    b = SieveStats([8, 2], combines=1, work=2)
    total = a + b
    assert total.list_sizes == [18, 6, 1]
    assert (total.combines, total.work) == (4, 9)
    assert (SieveStats() + a).list_sizes == a.list_sizes


@pytest.mark.parametrize("N, s", [(360, 123), (4095, 1000)])
def test_interval_sieve_psi1_cosine_law(N, s):
    # cosine observations against slope 0 on the returned copies, pooled
    # over seeds, follow (1 + cos(2 pi s / N)) / 2
    hits = total = 0
    for seed in range(12):
        ones, _ = interval_sieve(backend(N, s, seed=seed), 24)
        hits += int(cosine_observe(ones, 0).sum())
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
            ones = PhaseList(np.ones(4000, dtype=np.int64),
                             np.zeros(4000, dtype=bool), be)
            assert estimate_from_quadratures(ones) == s, (N, s)


def test_quadrature_estimator_needs_a_copy():
    with pytest.raises(InsufficientCopiesError):
        estimate_from_quadratures(PhaseList(np.zeros(0, dtype=np.int64),
                                            np.zeros(0, dtype=bool),
                                            backend(40, 1)))
