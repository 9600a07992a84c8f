"""Small dense linear-algebra helpers shared across modules.

Every dense decomposition in lrlab goes through numpy's LAPACK.  scipy
bundles a second OpenBLAS with its own thread pool; when calls alternate
between the two, the pools compete for the same cores.  With two threads
each on a 2-vCPU machine, a dim-64 ``eigh`` takes 9-11 ms when numpy and
scipy calls alternate, against 1.2-1.3 ms with numpy alone.
scipy stays in use only for ``scipy.special`` and ``scipy.sparse``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["op_norm", "is_hermitian", "polar_unitary", "expm_hermitian"]


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether ``a`` is square and equals its adjoint up to ``tol`` (relative)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return bool(np.abs(a - a.conj().T).max(initial=0.0) <= tol * scale)


def op_norm(a) -> float:
    """Spectral norm; uses the Hermitian eigensolver when it applies and the
    largest singular value otherwise, rectangular ``a`` included."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if is_hermitian(a):
        return float(np.abs(np.linalg.eigvalsh(a)).max())
    return float(np.linalg.norm(a, 2))


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Closest unitary to ``a`` in Frobenius norm (polar factor)."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T
