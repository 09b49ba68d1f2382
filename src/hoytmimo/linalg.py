"""Minimal dense linear algebra on numpy arrays.

Antisymmetric matrices are real ndarrays with B^T = -B over their last two
axes.  The one Pfaffian routine takes one matrix or a stack of them and
returns (sign, log|Pf|) per matrix by Parlett-Reid elimination, stepped
once for the whole stack, so a value never under- or overflows.  Hermitian
spectra of a stack come from one routine: 2 x 2 matrices in closed form,
larger ones from the batched ``numpy.linalg.eigvalsh``; the tests pin both
to an independent Jacobi solver.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermitian_eigenvalues_batch",
    "pfaffian_signed_log",
    "determinant_signed_log",
]


def hermitian_eigenvalues_batch(ws: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues for a stack of Hermitian matrices.

    A 2 x 2 member [[a, b*], [b, c]] gives mid -+ hypot((a - c)/2, |b|),
    mid = a/2 + c/2, halved before the sum and the difference so neither
    overflows; it reads the lower triangle, as LAPACK does for larger ones.
    """
    ws = np.asarray(ws)
    if ws.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(ws)
    a = ws[..., 0, 0].real
    c = ws[..., 1, 1].real
    mid = 0.5 * a + 0.5 * c
    rad = np.hypot(0.5 * a - 0.5 * c, np.abs(ws[..., 1, 0]))
    out = np.empty(ws.shape[:-1])
    np.subtract(mid, rad, out=out[..., 0])
    np.add(mid, rad, out=out[..., 1])
    return out


def _validate_antisymmetric(b: np.ndarray) -> np.ndarray:
    """b as a float stack (m, d, d), antisymmetrized, after checking each member."""
    b = np.asarray(b, dtype=float)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError("matrix must be square")
    n = b.shape[-1]
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    b = b.reshape(math.prod(b.shape[:-2]), n, n)
    bt = b.transpose(0, 2, 1)
    sym = b + bt
    if sym.any():  # exact antisymmetry, the common case, needs no scale
        scale = np.maximum(np.abs(b).max(axis=(1, 2)), 1.0)
        if (np.abs(sym).max(axis=(1, 2)) > 1e-12 * scale).any():
            raise ValueError("matrix is not antisymmetric within 1e-12")
    return 0.5 * (b - bt)


def pfaffian_signed_log(b: np.ndarray):
    """(sign, log|Pf|) by Parlett-Reid elimination with pivoting, per matrix.

    b is one antisymmetric matrix (d, d) or a stack (..., d, d), d even.
    One matrix gives a Python (int, float) pair; a stack gives two arrays of
    its leading shape, the signs as floats.  Each elimination step runs
    over the whole stack, but a member's pivots and row swaps are its own,
    so every member gets the value it gets alone.  A singular member gives
    (0, -inf) and leaves the others unchanged.  Returning logs keeps a
    value usable when the Pfaffian itself would under- or overflow (large
    matrices, strongly decaying entries).
    """
    lead = np.shape(b)[:-2]
    a = _validate_antisymmetric(b)
    n = a.shape[-1]
    sign = np.ones(len(a))
    pivots = np.ones((len(a), max(n // 2, 1)))  # an empty matrix has Pf = 1
    for k in range(0, n - 2, 2):
        kp = np.abs(a[:, k + 1 :, k]).argmax(axis=1) + (k + 1)
        moved = kp != k + 1
        if moved.any():
            # exchange row and column k + 1 with the pivot's (a no-op where kp = k + 1)
            mats = np.arange(len(a))
            perm = np.tile(np.arange(n), (len(a), 1))
            perm[:, k + 1] = kp
            perm[mats, kp] = k + 1
            a = a[mats[:, None, None], perm[:, :, None], perm[:, None, :]]
            sign = np.where(moved, -sign, sign)
        pivots[:, k // 2] = piv = a[:, k, k + 1]
        # a zero pivot leaves a zero row: divided by 1 it eliminates nothing
        t = a[:, k, k + 2 :] / np.where(piv == 0.0, 1.0, piv)[:, None]
        w = t[:, :, None] * a[:, None, k + 2 :, k + 1]
        a[:, k + 2 :, k + 2 :] += w - w.transpose(0, 2, 1)
    if n:
        pivots[:, -1] = a[:, n - 2, n - 1]
    sign *= np.sign(pivots).prod(axis=1)
    with np.errstate(divide="ignore"):
        # pivot by pivot, as a running sum; a zero pivot gives -inf
        logabs = np.log(np.abs(pivots)).cumsum(axis=1)[:, -1]
    if not lead:
        return int(sign[0]), float(logabs[0])
    return sign.reshape(lead), logabs.reshape(lead)


def determinant_signed_log(m: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of a real square matrix; sign is 0 if it is singular."""
    return np.linalg.slogdet(np.asarray(m, dtype=float))
