"""The bit-flip mixer's sparse operator and its Chebyshev propagation.

This is the one module of ``qns`` that loads ``scipy.sparse``,
``scipy.sparse.linalg``, ``scipy.special`` and ``scipy.linalg.blas``, at
its own import. ``qsim`` imports it when it builds its first bit-flip
operator, so a process loads them at its first bit-flip apply, and a
process that never applies a bit-flip mixer never loads them.

The operator is the mixer's sparse matrix B scaled to 2B/r on its exact
spectral interval [-r, r]; ``qsim`` builds and caches it once per (mixer,
size). A Chebyshev term is one zero-fill, one call of scipy's CSR matvec
kernel, one subtraction and one BLAS axpy, into three work vectors
allocated once per apply.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.blas import zaxpy
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import eigsh
from scipy.special import jv

from .qsim import MixerSpec, ring_graph

# Bessel coefficients below this size end the Chebyshev expansion; each
# dropped term moves a unit-norm state by at most twice its coefficient.
_BESSEL_CUTOFF = 1e-17

# Relative padding of the bit-flip mixer's largest eigenvalue, the half-width
# of the Chebyshev interval. ARPACK returns lambda_max to ~1e-15 relative;
# the padding keeps the spectrum inside the interval and costs no term.
_SPECTRAL_MARGIN = 1e-6


def mixer_sparse(mixer: MixerSpec, n_qubits: int) -> sparse.csr_matrix:
    """CSR matrix B of the ring bit-flip mixer, 1.0 wherever a flip is allowed."""
    dim = 1 << n_qubits
    idx = np.arange(dim)
    b = mixer.target_bit
    flips = []
    for v, neighbours in enumerate(ring_graph(n_qubits)):
        # The 1/2^d(v) prefactor cancels against the neighbor projectors,
        # leaving matrix element 1 exactly when every neighbor equals b.
        allowed = np.ones(dim, dtype=bool)
        for w in neighbours:
            allowed &= ((idx >> w) & 1) == b
        src = idx[allowed]
        flips.append((src ^ (1 << v), src))
    rows, cols = (np.concatenate(part) for part in zip(*flips))
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))


def chebyshev_operator(mixer: MixerSpec, n_qubits: int) -> tuple[sparse.csr_matrix, float]:
    """(2B/r as a complex CSR matrix, r) for the ring bit-flip mixer B.

    B is symmetric and nonnegative, so its largest eigenvalue is its spectral
    radius; every flip changes the parity of the Hamming weight, so the
    spectrum is symmetric and lies in [-r, r] with r = lambda_max padded by
    _SPECTRAL_MARGIN. ARPACK starts from the all-ones vector: a fixed start
    gives the same r on every run, and it overlaps a nonnegative eigenvector
    of lambda_max, so the iteration cannot miss it.
    The matrix is stored complex so that a matvec with a complex state does
    not convert its data on every call (the products are the same), and
    read-only, since ``qsim`` caches it for every later apply.
    """
    b = mixer_sparse(mixer, n_qubits)
    lam = eigsh(b, k=1, which="LA", v0=np.ones(b.shape[0]), return_eigenvectors=False)[0]
    r = float(lam) * (1.0 + _SPECTRAL_MARGIN)
    scaled = b.astype(np.complex128)
    scaled.data *= 2.0 / r
    for part in (scaled.data, scaled.indices, scaled.indptr):
        part.flags.writeable = False
    return scaled, r


def chebyshev_propagate(m: sparse.csr_matrix, r: float, v: np.ndarray,
                        beta: float) -> np.ndarray:
    """exp(-i*beta*h) @ v, given m = 2h/r for a real symmetric h with spectrum in [-r, r].

    exp(-i*x*t) = sum_k (2 - delta_k0) (-i)^k J_k(x) T_k(t) with x = beta*r
    and t = h/r (Tal-Ezer & Kosloff 1984). The T_k(h/r) v follow the
    three-term recurrence T_1 = (m/2) v, T_k = m T_(k-1) - T_(k-2): one
    sparse matvec and one subtraction per term, and the term is added to
    the sum in place. The matvec calls scipy's private ``csr_matvec``
    kernel on a zeroed work vector, which is what ``m @ cur`` runs after
    its own ``np.zeros``: the same sums in the same order, without
    ``@``'s dispatch or a new vector per term. Past k = |x|, J_k(x) falls faster than geometrically
    after a zone of width ~|x|^(1/3); the sum stops at the last k with
    |J_k(x)| >= _BESSEL_CUTOFF, which lies well inside the
    |x| + 16|x|^(1/3) + 25 coefficients computed.
    """
    x = beta * r
    j = jv(np.arange(int(abs(x) + 16.0 * abs(x) ** (1.0 / 3.0)) + 25), x)
    degree = int(np.flatnonzero(np.abs(j) >= _BESSEL_CUTOFF)[-1])
    powers_of_minus_i = np.array([1, -1j, -1, 1j])[np.arange(degree + 1) % 4]
    coef = (2.0 * j[: degree + 1] * powers_of_minus_i).tolist()
    out = j[0] * v
    dim = v.shape[0]
    indptr, indices, data = m.indptr, m.indices, m.data
    # T_k overwrites T_(k-3), the one buffer neither T_(k-1) nor T_(k-2) uses
    work = [np.empty_like(v) for _ in range(min(degree, 3))]
    prev, cur = v, v
    for k in range(1, degree + 1):
        nxt = work[(k - 1) % 3]
        nxt.fill(0.0)
        csr_matvec(dim, dim, indptr, indices, data, cur, nxt)
        if k == 1:
            nxt *= 0.5
        else:
            nxt -= prev
        out = zaxpy(nxt, out, a=coef[k])
        prev, cur = cur, nxt
    return out
