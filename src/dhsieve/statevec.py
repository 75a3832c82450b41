"""Exact dense quantum model at small N: the brute-force oracle used to
validate the phase-qubit backend and the spliced-approximation distance
claims.  Never called from inside the sieves.

Basis convention for C[D_N]: index t*N + b represents y^t x^b.  The
state of a hiding function is 1/(2N) on each pair of basis elements in the
same level set and 0 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import DihedralElement

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
    """Hermitian PSD operator with unit trace; real input stays real."""

    entries: np.ndarray

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.entries) else float
        self.entries = np.asarray(self.entries, dtype=dtype)
        if self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("density matrix must be square")
        if abs(np.trace(self.entries) - 1.0) > _ATOL_STRUCT * 10:
            raise ValueError("trace must be 1")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > _ATOL_STRUCT * 10:
            raise ValueError("matrix must be Hermitian")

    @property
    def dim(self):
        return self.entries.shape[0]


def rho_coset_mixture(N, s):
    """rho_{D_N/H}, the uniform mixture of the N coset-state projectors:
    coset a is {a, N + (s + a) mod N}."""
    if N > _MAX_DENSE_N:
        raise ValueError("dense simulation limited to N <= 1024")
    if not 0 <= s < N:
        raise ValueError("s must lie in [0, N)")
    b = np.arange(N)
    return _level_set_rho(np.concatenate([b, (b - s) % N]))


def _level_set_rho(idx):
    """1/(2N) on each pair of the 2N basis elements with equal level-set
    index idx, 0 elsewhere."""
    return DensityMatrix((idx[:, None] == idx[None, :]) / len(idx))


@lru_cache(maxsize=4)
def _elements(N):
    """The 2N elements of D_N in basis order; frozen, so safe to share."""
    return tuple(DihedralElement(t, b) for t in (0, 1) for b in range(N))


def rho_from_eval(N, eval_fn):
    """State left on the input register after dilating an arbitrary
    function on D_N and discarding the output: entry (i, j) is 1/(2N) when
    elements i and j lie in the same level set, else 0.  eval_fn is
    called exactly once per element, t = 0 before t = 1; the traced
    benchmark counts verifier queries by these calls."""
    if N > _MAX_DENSE_N:
        raise ValueError("dense simulation limited to N <= 1024")
    levels = {}
    idx = np.fromiter((levels.setdefault(eval_fn(e), len(levels))
                       for e in _elements(N)), dtype=np.intp, count=2 * N)
    return _level_set_rho(idx)


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
    # <v|rho_t|v> for v = (|k> +- |N+k>)/sqrt(2)
    k = np.arange(N)
    diag = (rho_t[k, k].real + rho_t[N + k, N + k].real) / 2
    cross = rho_t[k, N + k].real
    return np.stack([diag + cross, diag - cross], axis=1)


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
    """(1/2) sum of absolute eigenvalues of r1 - r2.  Indices whose row
    and column of r1 - r2 are exactly zero add only zero eigenvalues, so
    eigvalsh runs on the rest: the 2|s-t| broken elements of a spliced
    state against its exact one."""
    if r1.dim != r2.dim:
        raise ValueError("dimension mismatch")
    diff = r1.entries - r2.entries
    nonzero = diff != 0
    keep = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if keep.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(diff[np.ix_(keep, keep)])
    return 0.5 * float(np.sum(np.abs(eigs)))

