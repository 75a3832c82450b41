"""Dense exact model: coset states, mixtures, measurement laws computed
by plain linear algebra, and the trace-distance facts the spliced
approximation relies on."""

import numpy as np
import pytest

from dhsieve.group import DihedralElement, GroupCtx
from dhsieve.oracle import SubstringInstance, make_reflection_oracle, splice_substring
from dhsieve.statevec import (
    DensityMatrix,
    PureState,
    coset_state,
    extract_outcome_probs,
    extract_sim,
    left_mult_matrix,
    psi_vector,
    qft_joint_law,
    qft_measure_sim,
    rho_coset_mixture,
    rho_from_eval,
    trace_distance,
)


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1j], [2j, 0.5]]))  # not Hermitian


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
