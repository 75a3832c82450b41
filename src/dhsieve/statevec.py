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

    def fidelity(self, other):
        return abs(np.vdot(self.entries, other.entries)) ** 2


@dataclass
class DensityMatrix:
    """Hermitian PSD operator with unit trace; real input stays real."""

    entries: np.ndarray

    def __post_init__(self):
        cplx = np.iscomplexobj(self.entries)
        a = self.entries = np.asarray(self.entries,
                                      dtype=complex if cplx else float)
        if a.shape[0] != a.shape[1]:
            raise ValueError("density matrix must be square")
        if abs(a.trace() - 1.0) > _ATOL_STRUCT * 10:
            raise ValueError("trace must be 1")
        # a - a^T is antisymmetric: for real a its max is its max |entry|
        gap = np.abs(a - a.T.conj()) if cplx else a - a.T
        if gap.max() > _ATOL_STRUCT * 10:
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
    index idx, 0 elsewhere.  The entries are 0 or 1 before scaling, so
    scaling in place by 1/(2N) is bit-identical to dividing by 2N."""
    rho = np.equal.outer(idx, idx).astype(float)
    rho *= 1 / len(idx)
    return DensityMatrix(rho)


@lru_cache(maxsize=4)
def _elements(N):
    """The 2N elements of D_N in basis order; frozen, so safe to share."""
    return tuple(DihedralElement(t, b) for t in (0, 1) for b in range(N))


def rho_from_eval(N, eval_fn):
    """State left on the input register after dilating an arbitrary
    function on D_N and discarding the output: entry (i, j) is 1/(2N) when
    elements i and j lie in the same level set, else 0.  eval_fn is
    called exactly once per element, t = 0 before t = 1; the traced
    benchmark counts verifier queries by these calls.  A level set is
    numbered by the index of its first element."""
    if N > _MAX_DENSE_N:
        raise ValueError("dense simulation limited to N <= 1024")
    first = {}
    idx = np.fromiter(map(first.setdefault, map(eval_fn, _elements(N)),
                          range(2 * N)), dtype=np.intp, count=2 * N)
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


def _post_cnot(k, l, s, N):
    """Amplitudes [a, measured bit] of psi_k (x) psi_l after the CNOT
    |a, b> -> |a, a xor b> of the extraction step."""
    joint = np.kron(psi_vector(N, s, k).entries,
                    psi_vector(N, s, l).entries).reshape(2, 2)  # [a, b]
    return np.stack([joint[0], joint[1, ::-1]])


def extract_sim(k, l, s, N, rng):
    """Exact two-qubit simulation of the extraction step: CNOT on
    psi_k (x) psi_l, then measure the right qubit.  Returns the outcome
    bit and the residual left-qubit state."""
    amps = _post_cnot(k, l, s, N)
    outcome = int(rng.random() >= np.sum(np.abs(amps[:, 0]) ** 2))
    residual = amps[:, outcome]
    return outcome, PureState(residual / np.linalg.norm(residual))


def extract_outcome_probs(k, l, s, N):
    """Exact outcome distribution of the extraction measurement: the
    squared column norms of the post-CNOT amplitudes."""
    return np.sum(np.abs(_post_cnot(k, l, s, N)) ** 2, axis=0)


def trace_distance(r1, r2):
    """(1/2) sum of absolute eigenvalues of r1 - r2.  Indices whose row
    and column of r1 - r2 are exactly zero add only zero eigenvalues, so
    eigvalsh runs on the rest: the 2|s-t| broken elements of a spliced
    state against its exact one."""
    if r1.dim != r2.dim:
        raise ValueError("dimension mismatch")
    diff = r1.entries - r2.entries
    keep = np.flatnonzero(diff.any(axis=0) | diff.any(axis=1))
    if keep.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(diff.take(keep, 0).take(keep, 1))
    return 0.5 * float(np.sum(np.abs(eigs)))

