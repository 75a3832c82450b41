"""Dense exact model: coset states, mixtures, measurement laws computed
by plain linear algebra, and the trace-distance facts the spliced
approximation relies on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhsieve.group import DihedralElement, GroupCtx, dmul
from dhsieve.oracle import (
    HidingOracle,
    SubstringInstance,
    make_reflection_oracle,
    make_trivial_oracle,
    restrict_reflection,
    splice_substring,
    with_label_automorphism,
)
from dhsieve.statevec import (
    DensityMatrix,
    PureState,
    _level_set_rho,
    extract_outcome_probs,
    extract_sim,
    psi_vector,
    qft_joint_law,
    qft_matrix,
    rho_coset_mixture,
    rho_from_eval,
    trace_distance,
)


def coset_state(N, s, a):
    """|Ha> = (|x^a> + |y x^(s+a)>) / sqrt(2) for H = <y x^s>."""
    v = np.zeros(2 * N, dtype=complex)
    v[a] = v[N + (s + a) % N] = 1 / np.sqrt(2)
    return PureState(v)


def left_mult_matrix(N, g):
    """Permutation matrix of left multiplication by g on C[D_N]."""
    ctx = GroupCtx(N)
    P = np.zeros((2 * N, 2 * N))
    for t in (0, 1):
        for b in range(N):
            h = dmul(g, DihedralElement(t, b), ctx)
            P[h.t * N + h.b, t * N + b] = 1.0
    return P


def qft_measure_sim(N, s, rng):
    """Sample (k, residual qubit state) from the exact post-measurement
    distribution of the QFT step applied to a random coset state."""
    v = coset_state(N, s, int(rng.integers(0, N))).entries.reshape(2, N)
    amps = v @ qft_matrix(N).T  # amps[t, k]
    pk = (np.abs(amps) ** 2).sum(axis=0)
    k = int(rng.choice(N, p=pk / pk.sum()))
    residual = amps[:, k]
    return k, PureState(residual / np.linalg.norm(residual))


def _ref_rho_from_eval(N, eval_fn):
    """Reference for rho_from_eval: one outer product per level set,
    accumulated in a complex matrix."""
    groups = {}
    for t in (0, 1):
        for b in range(N):
            val = eval_fn(DihedralElement(t, b))
            groups.setdefault(val, []).append(t * N + b)
    rho = np.zeros((2 * N, 2 * N), dtype=complex)
    for idxs in groups.values():
        v = np.zeros(2 * N, dtype=complex)
        v[idxs] = 1.0
        rho += np.outer(v, v.conj())
    return rho / (2 * N)


def _ref_rho_coset_mixture(N, s):
    """Reference for rho_coset_mixture: the sum of the N coset-state
    projectors, one outer product each."""
    rho = np.zeros((2 * N, 2 * N), dtype=complex)
    for a in range(N):
        v = coset_state(N, s, a).entries
        rho += np.outer(v, v.conj())
    return rho / N


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1j], [2j, 0.5]]))  # not Hermitian


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dim", [2, 200])
def test_density_matrix_checks_keep_their_tolerance(dim, dtype):
    # trace and Hermitian checks at the 1e-11 tolerance, with the same
    # messages, on a small and a large matrix, real and complex: the one
    # vectorized a - a^H check finds a fault in the first row or the last,
    # and for complex input it compares against the conjugate transpose
    rho = np.eye(dim, dtype=dtype) / dim
    DensityMatrix(rho)
    with pytest.raises(ValueError, match="trace must be 1"):
        DensityMatrix(2 * rho)
    with pytest.raises(ValueError, match="trace must be 1"):
        DensityMatrix(rho + np.diag([1e-10] + [0.0] * (dim - 1)))
    for i, j in ((0, dim - 1), (dim - 1, 0)):
        for eps, ok in ((5e-12, True), (1e-10, False)):
            bad = rho.copy()
            bad[i, j] += eps
            if ok:
                DensityMatrix(bad)
            else:
                with pytest.raises(ValueError, match="must be Hermitian"):
                    DensityMatrix(bad)
    if dtype is complex:
        # symmetric is not Hermitian: the conjugate is taken
        sym = rho.copy()
        sym[0, dim - 1] = sym[dim - 1, 0] = 1e-10j
        with pytest.raises(ValueError, match="must be Hermitian"):
            DensityMatrix(sym)
        sym[dim - 1, 0] = -1e-10j
        DensityMatrix(sym)


def test_coset_state_support():
    v = coset_state(8, 3, 2).entries
    assert abs(v[2] - 1 / np.sqrt(2)) < 1e-12
    assert abs(v[8 + 5] - 1 / np.sqrt(2)) < 1e-12
    assert np.count_nonzero(v) == 2


def test_rho_mixture_invariant_under_hidden_subgroup():
    # left multiplication by the hidden reflection y x^s fixes the mixture
    N, s = 8, 3
    rho = rho_coset_mixture(N, s).entries
    P = left_mult_matrix(N, DihedralElement(1, s))
    assert np.max(np.abs(P @ rho @ P.T - rho)) < 1e-12


def test_rho_from_eval_matches_reference_loop():
    # reflection, spliced (every guess t) and injective oracles
    worst = 0.0
    for N in range(1, 17):
        ctx = GroupCtx(N)
        fns = [make_trivial_oracle(ctx)._eval]
        for s in range(N):
            fns.append(make_reflection_oracle(ctx, s)._eval)
            inst = SubstringInstance(N, s)
            fns += [splice_substring(inst, t)._eval for t in range(N)]
        for f in fns:
            err = np.abs(rho_from_eval(N, f).entries - _ref_rho_from_eval(N, f))
            worst = max(worst, float(err.max()))
    assert worst <= 1e-12


def test_rho_coset_mixture_matches_reference_loop():
    for N in range(1, 17):
        for s in range(N):
            err = np.abs(rho_coset_mixture(N, s).entries
                         - _ref_rho_coset_mixture(N, s))
            assert err.max() <= 1e-12


@pytest.mark.parametrize("s", [8, -1])
def test_rho_coset_mixture_rejects_unreduced_slope(s):
    with pytest.raises(ValueError):
        rho_coset_mixture(8, s)


def test_rho_from_eval_evaluates_each_element_once():
    N = 12
    ctx = GroupCtx(N)
    for o in (make_reflection_oracle(ctx, 5),
              splice_substring(SubstringInstance(N, 5), 2),
              make_trivial_oracle(ctx)):
        q0 = o.queries
        rho_from_eval(N, o.evaluate)
        assert o.queries - q0 == 2 * N
    seen = []

    def f(e):
        seen.append((e.t, e.b))
        return e.b % 3

    rho_from_eval(N, f)
    assert seen == [(t, b) for t in (0, 1) for b in range(N)]


def _oracles_on(N):
    """Every oracle kind the dense verifier reads, as oracles on D_N:
    reflection, trivial, spliced, both restrictions from D_2N and the
    automorphism wrapper."""
    ctx = GroupCtx(N)
    parent = make_reflection_oracle(GroupCtx(2 * N), (N + 1) % (2 * N))
    inst = SubstringInstance(N, N // 2)
    return [make_reflection_oracle(ctx, s) for s in range(N)] + [
        make_trivial_oracle(ctx),
        *(splice_substring(inst, t) for t in range(N)),
        restrict_reflection(parent, 0),
        restrict_reflection(parent, 1),
        with_label_automorphism(make_reflection_oracle(ctx, N - 1),
                                max(N - 1, 1)),  # x -> x^-1
    ]


def test_rho_from_eval_calls_evaluate_once_per_element(monkeypatch):
    # the traced benchmark counts verifier queries by wrapping
    # HidingOracle.evaluate on the class, as done here
    calls = []
    orig = HidingOracle.evaluate

    def counted(self, element):
        calls.append((element.t, element.b))
        return orig(self, element)

    monkeypatch.setattr(HidingOracle, "evaluate", counted)
    for N in range(1, 17):
        order = [(t, b) for t in (0, 1) for b in range(N)]
        for o in _oracles_on(N):
            calls.clear()
            q0 = o.queries
            rho_from_eval(N, o.evaluate)
            assert calls == order
            assert o.queries - q0 == 2 * N


@given(st.lists(st.integers(0, 9), min_size=1, max_size=70))
def test_level_set_rho_is_bit_identical_to_dividing(ids):
    # the 0/1 matrix is scaled in place by 1/(2N): the same doubles as
    # dividing it by 2N
    idx = np.array(ids, dtype=np.intp)
    want = (idx[:, None] == idx[None, :]) / len(idx)
    got = _level_set_rho(idx).entries
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_density_matrix_keeps_real_input_real():
    real = np.diag([0.25, 0.75])
    assert DensityMatrix(real).entries.dtype == np.float64
    assert DensityMatrix(real + 0j).entries.dtype == np.complex128
    assert rho_from_eval(6, lambda e: e.b % 2).entries.dtype == np.float64
    assert rho_coset_mixture(6, 1).entries.dtype == np.float64
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not symmetric
    # the real eigvalsh path gives the complex path's distance
    a, b = rho_coset_mixture(6, 1), rho_coset_mixture(6, 4)
    td = trace_distance(DensityMatrix(a.entries + 0j),
                        DensityMatrix(b.entries + 0j))
    assert abs(trace_distance(a, b) - td) < 1e-12


def test_rho_from_eval_matches_mixture():
    # dilating the hiding function and discarding the output leaves
    # exactly the coset mixture
    N, s = 12, 7
    o = make_reflection_oracle(GroupCtx(N), s)
    r1 = rho_from_eval(N, o._eval).entries
    r2 = rho_coset_mixture(N, s).entries
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_qft_joint_law_frozen_n2():
    # N=2, s=1: measuring label k=1 leaves the |-> state deterministically
    law = qft_joint_law(2, 1)
    assert np.allclose(law, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_qft_joint_law_closed_form_all_small():
    # law[k] = [cos^2(pi k s/N)/N, 1/N - cos^2(pi k s/N)/N]
    for N in range(1, 33):
        k = np.arange(N)
        for s in range(N):
            cos2 = np.cos(np.pi * k * s / N) ** 2 / N
            expect = np.stack([cos2, 1 / N - cos2], axis=1)
            assert np.abs(qft_joint_law(N, s) - expect).max() <= 1e-12


def test_qft_joint_law_marginals():
    law = qft_joint_law(8, 3)
    assert abs(law.sum() - 1) < 1e-9
    assert np.allclose(law.sum(axis=1), 1 / 8, atol=1e-12)  # uniform labels
    # plus-probability for label k is cos^2(pi k s / N)
    for k in range(8):
        p = np.cos(np.pi * ((k * 3) % 8) / 8) ** 2
        assert abs(law[k, 0] * 8 - p) < 1e-9


def test_qft_measure_sim_residual_is_phase_state():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k, residual = qft_measure_sim(12, 5, rng)
        # the residual equals psi_k up to global phase
        assert residual.fidelity(psi_vector(12, 5, k)) > 1 - 1e-10


def test_extract_outcome_probs_fair():
    for k in range(6):
        for l in range(6):
            assert np.allclose(extract_outcome_probs(k, l, 2, 6), [0.5, 0.5])


def test_extract_residuals_exhaustive_small():
    rng = np.random.default_rng(1)
    N = 6
    for s in range(N):
        for k in range(N):
            for l in range(N):
                m, res = extract_sim(k, l, s, N, rng)
                lbl = (k + l) % N if m == 0 else (k - l) % N
                assert res.fidelity(psi_vector(N, s, lbl)) > 1 - 1e-10


def test_trace_distance_basics():
    e0 = np.zeros((2, 2)); e0[0, 0] = 1
    e1 = np.zeros((2, 2)); e1[1, 1] = 1
    assert abs(trace_distance(DensityMatrix(e0), DensityMatrix(e1)) - 1) < 1e-12
    assert trace_distance(DensityMatrix(e0), DensityMatrix(e0)) < 1e-12
    with pytest.raises(ValueError):
        trace_distance(DensityMatrix(e0), DensityMatrix(np.eye(4) / 4))


def test_spliced_distance_single_case():
    # |s - t| broken cosets: unhalved trace norm |s-t|/N, so the
    # 1/2-convention distance is |s-t|/(2N)
    N, s, t = 16, 11, 7
    inst = SubstringInstance(N, s)
    o = splice_substring(inst, t)
    exact = rho_from_eval(N, make_reflection_oracle(GroupCtx(N), (s - t) % N)._eval)
    spliced = rho_from_eval(N, o._eval)
    assert abs(2 * trace_distance(spliced, exact) - abs(s - t) / N) < 1e-9


def test_dense_size_limit():
    with pytest.raises(ValueError):
        rho_coset_mixture(2048, 1)
    calls = []
    with pytest.raises(ValueError):
        rho_from_eval(2048, calls.append)
    assert calls == []


def _full_trace_distance(r1, r2):
    eigs = np.linalg.eigvalsh(r1.entries - r2.entries)
    return 0.5 * float(np.sum(np.abs(eigs)))


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 16), s=st.integers(0, 15), t=st.integers(0, 15),
       d=st.integers(0, 15))
def test_trace_distance_support_matches_full_on_rho_pairs(N, s, t, d):
    s, t, d = s % N, t % N, d % N
    spliced = rho_from_eval(N, splice_substring(SubstringInstance(N, s), t)._eval)
    exact = rho_from_eval(N, make_reflection_oracle(GroupCtx(N), d)._eval)
    for a, b in ((spliced, exact), (exact, spliced)):
        assert abs(trace_distance(a, b) - _full_trace_distance(a, b)) <= 1e-12


def _random_psd(rng, dim, support):
    """Random complex PSD matrix of unit trace, zero outside support."""
    A = np.zeros((dim, dim), dtype=complex)
    A[support] = (rng.normal(size=(len(support), dim))
                  + 1j * rng.normal(size=(len(support), dim)))
    rho = A @ A.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12))
def test_trace_distance_support_matches_full_on_random_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    support = np.flatnonzero(rng.random(dim) < 0.6)
    if support.size == 0:
        support = np.array([0])
    r1 = _random_psd(rng, dim, support)
    r2 = _random_psd(rng, dim, support if rng.random() < 0.5
                     else np.arange(dim))
    assert abs(trace_distance(r1, r2) - _full_trace_distance(r1, r2)) <= 1e-12
    assert trace_distance(r1, r1) == 0.0
    assert trace_distance(r2, DensityMatrix(r2.entries.copy())) == 0.0
    with pytest.raises(ValueError):
        trace_distance(r1, DensityMatrix(np.eye(dim + 1) / (dim + 1)))
