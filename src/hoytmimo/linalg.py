"""Minimal dense linear algebra on numpy arrays.

Antisymmetric matrices are real square ndarrays with B^T = -B.  Hermitian
spectra come from the batched ``numpy.linalg.eigvalsh`` wrapper below; the
tests pin it to an independent Jacobi solver.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermitian_eigenvalues_batch",
    "pfaffian",
    "determinant_signed_log",
]


def hermitian_eigenvalues_batch(ws: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues for a stack of Hermitian matrices (LAPACK)."""
    return np.linalg.eigvalsh(ws)


def _validate_antisymmetric(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError("matrix must be square")
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    scale = float(np.max(np.abs(b))) if n else 0.0
    if n and np.max(np.abs(b + b.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not antisymmetric within 1e-12")
    return 0.5 * (b - b.T)


def pfaffian_signed_log(b: np.ndarray) -> tuple[int, float]:
    """(sign, log|Pf|) by Parlett-Reid elimination with pivoting.

    Returning logs keeps the value usable when the Pfaffian itself would
    under- or overflow (large matrices, strongly decaying entries).
    """
    a = _validate_antisymmetric(b).copy()
    n = a.shape[0]
    if n == 0:
        return 1, 0.0
    sign = 1
    logabs = 0.0
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1 :, k])
        kp = k + 1 + int(np.argmax(col))
        piv = a[kp, k]
        if piv == 0.0:
            return 0, -math.inf
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            sign = -sign
        piv = a[k, k + 1]
        sign *= 1 if piv > 0 else -1
        logabs += math.log(abs(piv))
        if k + 2 < n:
            t = a[k, k + 2 :] / piv
            u = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(t, u) - np.outer(u, t)
    return sign, logabs


def pfaffian(b: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric even-dimensional matrix."""
    a = _validate_antisymmetric(b)
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n == 2:
        return float(a[0, 1])
    if n == 4:
        return float(
            a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        )
    sign, logabs = pfaffian_signed_log(a)
    if sign == 0:
        return 0.0
    return sign * math.exp(logabs)


def determinant_signed_log(m: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of a real square matrix; sign is 0 if it is singular."""
    return np.linalg.slogdet(np.asarray(m, dtype=float))
