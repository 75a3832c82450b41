"""Exact dense quantum model at small N: the brute-force oracle used to
validate the phase-qubit backend and the spliced-approximation distance
claims.  Never called from inside the sieves.

Basis convention for C[D_N]: index t*N + b represents y^t x^b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import DihedralElement, GroupCtx

_ATOL_STRUCT = 1e-12
_MAX_DENSE_N = 1 << 10


@dataclass
class PureState:
    """Unit vector in a small Hilbert space."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        norm = np.linalg.norm(self.entries)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("state is not normalized")

    @property
    def dim(self):
        return self.entries.shape[0]

    def fidelity(self, other):
        return abs(np.vdot(self.entries, other.entries)) ** 2


@dataclass
class DensityMatrix:
    """Hermitian PSD operator with unit trace."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("density matrix must be square")
        if abs(np.trace(self.entries) - 1.0) > _ATOL_STRUCT * 10:
            raise ValueError("trace must be 1")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > _ATOL_STRUCT * 10:
            raise ValueError("matrix must be Hermitian")

    @property
    def dim(self):
        return self.entries.shape[0]


def coset_state(N, s, a):
    """|Ha> = (|x^a> + |y x^(s+a)>) / sqrt(2) for H = <y x^s>."""
    if not (0 <= s < N and 0 <= a < N):
        raise ValueError("s and a must lie in [0, N)")
    v = np.zeros(2 * N, dtype=complex)
    v[a] = 1 / np.sqrt(2)
    v[N + (s + a) % N] = 1 / np.sqrt(2)
    return PureState(v)


def left_mult_matrix(N, g):
    """Permutation matrix of left multiplication by g on C[D_N]."""
    ctx = GroupCtx(N)
    P = np.zeros((2 * N, 2 * N))
    from .group import dmul

    for t in (0, 1):
        for b in range(N):
            h = dmul(g, DihedralElement(t, b), ctx)
            P[h.t * N + h.b, t * N + b] = 1.0
    return P


def rho_coset_mixture(N, s):
    """rho_{D_N/H}: the uniform mixture of the N coset-state projectors."""
    if N > _MAX_DENSE_N:
        raise ValueError("dense simulation limited to N <= 1024")
    rho = np.zeros((2 * N, 2 * N), dtype=complex)
    for a in range(N):
        v = coset_state(N, s, a).entries
        rho += np.outer(v, v.conj())
    return DensityMatrix(rho / N)


def rho_from_eval(N, eval_fn):
    """State left on the input register after dilating an arbitrary
    function on D_N and discarding the output: block sums over the level
    sets of the function."""
    if N > _MAX_DENSE_N:
        raise ValueError("dense simulation limited to N <= 1024")
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
    return DensityMatrix(rho / (2 * N))


def qft_matrix(N):
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)


def psi_vector(N, s, k):
    """The two-dimensional state (|0> + e^(2 pi i ks/N)|1>)/sqrt(2)."""
    return PureState(np.array([1.0, np.exp(2j * np.pi * ((k * s) % N) / N)])
                     / np.sqrt(2))


def qft_joint_law(N, s):
    """Exact joint distribution of (measured k, |+->/|-> outcome on the
    reflection qubit) after Fourier-transforming the rotation register of
    rho_{D_N/H}.  Returns an (N, 2) array; computed by direct linear
    algebra, independent of the closed-form sampler."""
    rho = rho_coset_mixture(N, s).entries
    F = qft_matrix(N)
    U = np.kron(np.eye(2), F)  # basis index t*N + b
    rho_t = U @ rho @ U.conj().T
    law = np.zeros((N, 2))
    for k in range(N):
        for sign, col in ((1.0, 0), (-1.0, 1)):
            v = np.zeros(2 * N, dtype=complex)
            v[k] = 1 / np.sqrt(2)
            v[N + k] = sign / np.sqrt(2)
            law[k, col] = np.real(np.vdot(v, rho_t @ v))
    return law


def qft_measure_sim(N, s, rng):
    """Sample (k, residual qubit state) from the exact post-measurement
    distribution of the QFT step applied to a random coset state."""
    a = int(rng.integers(0, N))
    v = coset_state(N, s, a).entries.reshape(2, N)
    F = qft_matrix(N)
    amps = v @ F.T  # amps[t, k]
    probs = np.abs(amps) ** 2
    pk = probs.sum(axis=0)
    pk = pk / pk.sum()
    k = int(rng.choice(N, p=pk))
    residual = amps[:, k]
    residual = residual / np.linalg.norm(residual)
    return k, PureState(residual)


def extract_sim(k, l, s, N, rng):
    """Exact two-qubit simulation of the extraction step: CNOT on
    psi_k (x) psi_l, then measure the right qubit.  Returns the outcome
    bit and the residual left-qubit state."""
    pk = psi_vector(N, s, k).entries
    pl = psi_vector(N, s, l).entries
    joint = np.kron(pk, pl)  # index 2*a + b
    cnot = np.zeros((4, 4))
    for a in (0, 1):
        for b in (0, 1):
            cnot[2 * a + (a ^ b), 2 * a + b] = 1.0
    joint = cnot @ joint
    joint = joint.reshape(2, 2)  # [a, measured bit]
    probs = np.abs(joint) ** 2
    pb = probs.sum(axis=0)
    outcome = int(rng.random() >= pb[0])
    residual = joint[:, outcome]
    residual = residual / np.linalg.norm(residual)
    return outcome, PureState(residual)


def extract_outcome_probs(k, l, s, N):
    """Exact outcome distribution of the extraction measurement."""
    pk = psi_vector(N, s, k).entries
    pl = psi_vector(N, s, l).entries
    joint = np.kron(pk, pl).reshape(2, 2)
    # CNOT maps |a,b> -> |a, a xor b>; bit value columns after the gate
    p0 = abs(joint[0, 0]) ** 2 + abs(joint[1, 1]) ** 2
    return np.array([p0, 1 - p0])


def cosine_overlap_sim(N, k, s, t):
    """|<psi'_k|psi_k>|^2 for reference slope t: the exact bias of a
    cosine observation, from explicit state vectors."""
    return psi_vector(N, s, k).fidelity(psi_vector(N, t, k))


def trace_distance(r1, r2):
    """(1/2) sum of absolute eigenvalues of r1 - r2."""
    if r1.dim != r2.dim:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvalsh(r1.entries - r2.entries)
    return 0.5 * float(np.sum(np.abs(eigs)))

