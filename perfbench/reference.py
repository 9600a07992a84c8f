"""Reference computations that share no code with lrlab.

Fermionic operators are built by the Jordan-Wigner construction from Pauli
Kronecker products, in lrlab's documented basis convention: mode m is bit m
of the basis index, and the annihilator of mode m carries the sign string
(-1)^(occupation of the modes below m).  Every spectral quantity is taken
from numpy's own ``eigh``/``svd``, never from an lrlab routine.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_LOWER = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))
_SZ = sp.csr_matrix(np.diag([1.0, -1.0]).astype(np.complex128))
_EYE = sp.identity(2, dtype=np.complex128, format="csr")


def annihilators(n_modes: int) -> list:
    """Sparse Jordan-Wigner annihilators c_0 .. c_{n-1}.

    The leftmost Kronecker factor is the most significant bit, i.e. the
    highest mode, so the string of Z factors sits to the right of sigma-.
    Products of these signed permutations stay sparse; callers densify
    the finished operator.
    """
    out = []
    for m in range(n_modes):
        mat = sp.identity(1, dtype=np.complex128, format="csr")
        for j in reversed(range(n_modes)):
            factor = _EYE if j > m else (_LOWER if j == m else _SZ)
            mat = sp.kron(mat, factor, format="csr")
        out.append(mat)
    return out


def dense(op) -> np.ndarray:
    return op.toarray() if sp.issparse(op) else np.asarray(op)


def graph_distance(kind: str, n: int, x: int, y: int) -> int:
    gap = abs(x - y)
    return min(gap, n - gap) if kind == "ring" else gap


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def random_two_body_hamiltonian(kind, n, rng, alpha_tb, strength):
    """The documented random_two_body ensemble, rebuilt from its definition.

    Per pair x < y in lexicographic order: seven standard-normal
    coefficients on (n_x, n_y, n_x n_y, hop quadratures, pair quadratures),
    rescaled to operator norm strength / (1 + d(x, y))^alpha_tb.  Draws
    from ``rng`` in the same order, so the same generator state gives the
    same Hamiltonian.
    """
    c = annihilators(n)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(n):
        for y in range(x + 1, n):
            cx, cy = c[x], c[y]
            nx, ny = cx.conj().T @ cx, cy.conj().T @ cy
            hop = cx.conj().T @ cy
            pair = cx.conj().T @ cy.conj().T
            basis = [
                nx,
                ny,
                nx @ ny,
                hop + hop.conj().T,
                1j * (hop - hop.conj().T),
                pair + pair.conj().T,
                1j * (pair - pair.conj().T),
            ]
            coeffs = rng.standard_normal(len(basis))
            term = dense(sum(k * b for k, b in zip(coeffs, basis)))
            norm = float(np.abs(np.linalg.eigvalsh(term)).max())
            if norm < 1e-12:
                continue
            target = strength / (1.0 + graph_distance(kind, n, x, y)) ** alpha_tb
            h += (target / norm) * term
    return h


def commutator_sweep(h, a, b, times) -> np.ndarray:
    """||[e^{iHt} A e^{-iHt}, B]|| from one eigendecomposition of H."""
    evals, vecs = np.linalg.eigh(h)
    at = vecs.conj().T @ a @ vecs
    bt = vecs.conj().T @ b @ vecs
    out = []
    for t in times:
        phase = np.exp(1j * evals * t)
        a_t = (phase[:, None] * at) * phase.conj()[None, :]
        out.append(op_norm(a_t @ bt - bt @ a_t))
    return np.array(out)


def atomic_chain(n, mu, hop, alpha_tb):
    """(H_0, [n_z]) with H_0 = sum_z mu_z n_z + sum_{x<y} hop/(1+|x-y|)^alpha
    (c*_x c_y + h.c.) on an open chain; the densities stay sparse."""
    c = annihilators(n)
    num = [m.conj().T @ m for m in c]
    h = sum(mu[z] * num[z] for z in range(n))
    for x in range(n):
        for y in range(x + 1, n):
            t = hop / (1.0 + abs(x - y)) ** alpha_tb
            h = h + t * (c[x].conj().T @ c[y] + c[y].conj().T @ c[x])
    return dense(h), num


def window_projector(h, lo, hi):
    """(projector, rank) onto the eigenvectors with lo < E < hi."""
    evals, vecs = np.linalg.eigh(h)
    inside = (evals > lo) & (evals < hi)
    v = vecs[:, inside]
    return v @ v.conj().T, int(inside.sum())


def window_differences(p0, p1, num) -> np.ndarray:
    """|Tr(P(1) n_z) - Tr(P(0) n_z)| for every density (||n_z|| = 1)."""
    diag = np.real(np.diagonal(p1 - p0))
    return np.array([abs(float(diag @ n.diagonal().real)) for n in num])


def _smooth_step(x):
    def bump(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    lo, hi = bump(x), bump(1.0 - x)
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, lo / np.where(lo + hi > 0, lo + hi, 1.0)))


def inverse_liouvillian(h, a, gap, soft):
    """J(A) with the filter (i/omega) chi(|omega|), chi the exp(-1/x)
    mollified step from 0 at |omega| = soft to 1 at |omega| = gap."""
    evals, vecs = np.linalg.eigh(h)
    om = evals[:, None] - evals[None, :]
    chi = _smooth_step((np.abs(om) - soft) / (gap - soft))
    f = 1j * chi / np.where(chi > 0, om, 1.0)
    return vecs @ (f * (vecs.conj().T @ a @ vecs)) @ vecs.conj().T


def sector_gap(h, k=1) -> float:
    evals = np.linalg.eigvalsh(h)
    return float(evals[k] - evals[k - 1])


def obstruction_pair_norm() -> float:
    """||[a_0, a_1]|| for the two-mode pair, written out entry by entry
    on the basis |n_0 n_1> with index n_0 + 2 n_1."""
    a0 = np.zeros((4, 4), dtype=np.complex128)
    a0[0, 1] = a0[2, 3] = 1.0  # empties mode 0, no sign string
    a1 = np.zeros((4, 4), dtype=np.complex128)
    a1[0, 2] = 1.0  # empties mode 1 ...
    a1[1, 3] = -1.0  # ... with sign (-1)^(n_0)
    return op_norm(a0 @ a1 - a1 @ a0)
