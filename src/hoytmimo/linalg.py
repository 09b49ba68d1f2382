"""Minimal dense linear algebra on numpy arrays.

Antisymmetric matrices are real ndarrays with B^T = -B over their last two
axes.  The one Pfaffian routine takes one matrix or a stack of them and
returns (sign, log|Pf|) per matrix by Parlett-Reid elimination, so a value
never under- or overflows.  A stack is stepped once for the whole stack in
numpy; one matrix up to _FLOAT_DIM is eliminated on nested Python floats,
where numpy's per-call overhead would cost more than the arithmetic, by the
same steps in the same order, so its value is bit for bit the one the
stack gives it.  Input that is antisymmetric only within 1e-12 is rebuilt
as (B - B^T)/2; exactly antisymmetric input, such as the G of
``ensemble.jpd``, is taken as it is (a copy), which gives the same values
without the rebuild.  A non-finite entry is an error.  Hermitian spectra
of 1 x 1 to 3 x 3 members come in closed form from their lower triangles,
given one 1-D array per entry, so a caller that can form the entries
directly (the Monte Carlo gram matrices) needs neither the full matrices
nor LAPACK.  Larger stacks go to the batched ``numpy.linalg.eigvalsh``.
The tests pin both to an independent Jacobi solver and to 40-digit
values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "hermitian_eigenvalues_batch",
    "hermitian_eigenvalues_lower",
    "pfaffian_signed_log",
    "determinant_signed_log",
]


# A 3 x 3 member whose r = det(W - m)/(2 p^3) lies within this of +-1 has
# two eigenvalues close on the scale p, where d(arccos r)/dr = 1/sqrt(1 - r^2)
# turns the rounding of r into an error of order eps/gap; those members go
# to LAPACK.  Against 40-digit values on 1500 unitary rotations of
# diag(lam0, 1, 1 + gap), gap log-uniform in [1e-4, 1], the worst error in
# units of eps max|lam| was 13.4 at 1e-3, 6.8 at 5e-3 and 4.0 at 1e-2, where
# LAPACK's own worst on the same members is 3.95; a larger constant gains
# nothing.  At 1e-2 about 2.2% of 3x6 Wishart members go to LAPACK at q = 0
# and 0.4% at q = 0.5 and 1.
_NEAR_DOUBLE = 1e-2


def hermitian_eigenvalues_batch(ws: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues for a stack of Hermitian matrices, shape (..., N), from LAPACK.

    The Monte Carlo path calls it for N >= 4 only; smaller spectra come
    from ``hermitian_eigenvalues_lower``.
    """
    return np.linalg.eigvalsh(ws)


def hermitian_eigenvalues_lower(diag, lower) -> np.ndarray:
    """Ascending eigenvalues (m, N) of m Hermitian N x N matrices, 1 <= N <= 3.

    diag holds the N real diagonals w_jj and lower the w_jk, j > k, in the
    order (1, 0), (2, 0), (2, 1), each a 1-D array over the members, all
    complex or all real (real symmetric members).  N = 1
    is the diagonal itself.  A 2 x 2 member [[a, b*], [b, c]] gives
    mid -+ hypot((a - c)/2, |b|), mid = a/2 + c/2, halved before the sum and
    the difference so neither overflows.  A 3 x 3 member takes the
    trigonometric form (O. K. Smith, Commun. ACM 4 (1961) 168) on the member
    scaled by a power of two until its largest real or imaginary part is
    below 1, so neither its products nor its square norms leave the float
    range.
    """
    if len(diag) == 1:
        return np.asarray(diag[0], dtype=float)[:, None]
    if len(diag) == 2:
        a, c = diag
        mid = 0.5 * a + 0.5 * c
        rad = np.hypot(0.5 * a - 0.5 * c, np.abs(lower[0]))
        out = np.empty(mid.shape + (2,))
        np.subtract(mid, rad, out=out[:, 0])
        np.add(mid, rad, out=out[:, 1])
        return out
    return _eigenvalues_3x3(diag, lower)


def _eigenvalues_3x3(diag, lower) -> np.ndarray:
    """The 3 x 3 case of hermitian_eigenvalues_lower.

    With m = tr/3 and p^2 = ||W - m||_F^2 / 6, r = det(W - m)/(2 p^3) and
    phi = arccos(r)/3, the extremes are m + 2p cos(phi) and
    m + 2p cos(phi + 2 pi/3), the middle one tr minus the other two.
    Members with 1 - |r| < _NEAR_DOUBLE are solved by LAPACK instead.
    Real members skip every term of an imaginary part.
    """
    lower = [np.asarray(b) for b in lower]
    real = not any(np.iscomplexobj(b) for b in lower)
    parts = [np.asarray(d, dtype=float) for d in diag]
    for b in lower:
        parts += [b] if real else [b.real, b.imag]
    big = np.abs(parts[0])
    for x in parts[1:]:
        np.maximum(big, np.abs(x), out=big)
    _, exp = np.frexp(big)  # big < 2^exp, and exp = 0 for a zero member
    d0, d1, d2, *off = (np.ldexp(x, -exp) for x in parts)
    tr = d0 + d1 + d2
    m = tr / 3.0
    a0, a1, a2 = d0 - m, d1 - m, d2 - m
    # det(W - m) by cofactors: a0 a1 a2 + 2 Re(b10 b21 conj(b20)) - sum a_j |b_kl|^2
    if real:
        r10, r20, r21 = off
        n10, n20, n21 = r10 * r10, r20 * r20, r21 * r21
        cross = r10 * r21 * r20
    else:
        r10, i10, r20, i20, r21, i21 = off
        n10 = r10 * r10 + i10 * i10
        n20 = r20 * r20 + i20 * i20
        n21 = r21 * r21 + i21 * i21
        re = r10 * r21 - i10 * i21
        im = r10 * i21 + i10 * r21
        cross = re * r20 + im * i20
    p = np.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + 2.0 * (n10 + n20 + n21)) / 6.0)
    det = a0 * a1 * a2 + 2.0 * cross - a0 * n21 - a1 * n20 - a2 * n10
    half = 2.0 * p * p * p
    r = np.divide(det, half, out=np.zeros_like(det), where=half > 0.0)  # p = 0: W = m
    np.clip(r, -1.0, 1.0, out=r)
    phi = np.arccos(r) / 3.0
    out = np.empty(m.shape + (3,))
    lo, mid, hi = out[:, 0], out[:, 1], out[:, 2]
    np.add(m, 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0), out=lo)
    np.add(m, 2.0 * p * np.cos(phi), out=hi)
    # lo <= m <= hi as rounded; the clip keeps a near-scalar member ascending
    np.clip(tr - lo - hi, lo, hi, out=mid)
    near = np.flatnonzero(1.0 - np.abs(r) < _NEAR_DOUBLE)
    if near.size:
        sel = [x[near] for x in off]
        lows = sel if real else [x + 1j * y for x, y in zip(sel[::2], sel[1::2])]
        w = np.zeros((near.size, 3, 3), dtype=lows[0].dtype)  # LAPACK reads the lower triangle
        for j, x in enumerate((d0, d1, d2)):
            w[:, j, j] = x[near]
        for (j, k), b in zip(((1, 0), (2, 0), (2, 1)), lows):
            w[:, j, k] = b
        out[near] = np.linalg.eigvalsh(w)
    return np.ldexp(out, exp[:, None], out=out)


# One matrix of at most this dimension is eliminated on Python floats,
# larger ones in numpy, like a stack.  On random antisymmetric matrices
# (CPython 3.11, numpy 2.4, one core of a 2-core AVX-512 VM; timeit, best
# of 7) the float path against the numpy elimination took 2.5 against 15
# us at d = 2, 6.8 against 38 at d = 4, 27 against 83 at d = 8, 110
# against 168 at d = 16, 178 against 210 at d = 20, 225 against 243 at
# d = 22 and 304 against 309 at d = 24; at d = 28 numpy was ahead, 319
# against 446 us.
_FLOAT_DIM = 20

# A d x d member whose largest |entry| passes 2^(_TOP - d) is divided by a
# power of two to just below it before elimination.  The pivot is the
# largest entry of its column, so |t_i| <= 1 and a step adds at most twice
# the largest entry to each entry: over d/2 steps the largest grows at
# most 3^(d/2) < 2^(0.8 d) fold, and stays finite.  Without the scaling,
# entries near the float maximum overflowed to inf and then gave NaN.
_TOP = 1023


def _validate_antisymmetric(b: np.ndarray) -> np.ndarray:
    """b as a float stack (m, d, d), antisymmetrized, after checking each member."""
    b = np.asarray(b, dtype=float)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError("matrix must be square")
    n = b.shape[-1]
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    b = b.reshape(math.prod(b.shape[:-2]), n, n)
    if not np.isfinite(b).all():
        raise ValueError("matrix has a non-finite entry")
    bt = b.transpose(0, 2, 1)
    sym = b + bt
    if not sym.any():  # exact antisymmetry, the common case: 0.5 (b - b^T) is b itself
        return b.copy()
    scale = np.maximum(np.abs(b).max(axis=(1, 2)), 1.0)
    if (np.abs(sym).max(axis=(1, 2)) > 1e-12 * scale).any():
        raise ValueError("matrix is not antisymmetric within 1e-12")
    return 0.5 * (b - bt)


def _antisymmetric_rows(b: np.ndarray) -> list:
    """One matrix b (d, d), d even, as rows of Python floats, checked as stacks are checked.

    Exactly antisymmetric rows, b_jk + b_kj = 0 on and above the diagonal,
    are returned as they are; no infinite or NaN entry passes that test.
    Other rows go to _rebuilt_rows, which checks and rebuilds them with
    _validate_antisymmetric, the stack's own code.
    """
    rows = b.tolist()
    for j, row in enumerate(rows):
        for k in range(j, len(rows)):
            if row[k] + rows[k][j]:
                return _rebuilt_rows(rows)
    return rows


def _rebuilt_rows(rows: list) -> list:
    """0.5 (b - b^T) of the rows of b, checked and rebuilt by _validate_antisymmetric."""
    return _validate_antisymmetric(np.array(rows))[0].tolist()


def _pfaffian_rows(a: list):
    """(sign, log|Pf|) of one antisymmetric matrix given as rows of Python floats, changed in place.

    Step for step the stacked elimination of pfaffian_signed_log: the
    first largest |a_ik|, i > k, is the pivot (the first NaN, as numpy's
    argmax takes it), row and then column k + 1 are exchanged with the
    pivot's, and a_ij += t_i c_j - t_j c_i with t = a[k, k+2:] / a_k,k+1
    (divided by 1 at a zero pivot) and c = a[k+2:, k+1].  The pivots' logs
    come from numpy's log, as the stack's do, and are summed left to right.
    A matrix with entries near the float maximum is scaled first (_TOP).
    """
    n = len(a)
    big = max(itertools.chain.from_iterable(a)) if n else 0.0  # antisymmetric: the largest |entry|
    shift = math.frexp(big)[1] - (_TOP - n) if big > math.ldexp(1.0, _TOP - n) else 0
    if shift:
        a = [[math.ldexp(x, -shift) for x in row] for row in a]
    sign, pivots = 1.0, []
    for k in range(0, n - 2, 2):
        k1, k2 = k + 1, k + 2
        kp, big = k1, -1.0
        for i in range(k1, n):
            v = abs(a[i][k])
            if not v <= big:
                kp, big = i, v
                if v != v:
                    break
        if kp != k1:
            a[k1], a[kp] = a[kp], a[k1]
            for row in a:
                row[k1], row[kp] = row[kp], row[k1]
            sign = -sign
        piv = a[k][k1]
        pivots.append(piv)
        div = piv if piv != 0.0 else 1.0
        t = [x / div for x in a[k][k2:]]
        c = [row[k1] for row in a[k2:]]
        for row, ti, ci in zip(a[k2:], t, c):
            row[k2:] = [x + (ti * cj - tj * ci) for x, tj, cj in zip(row[k2:], t, c)]
    if n:
        pivots.append(a[n - 2][n - 1])
    for piv in pivots:
        if not piv > 0.0:
            sign = -sign if piv < 0.0 else sign * piv  # 0 at a zero pivot
    mags = [abs(piv) for piv in pivots]
    if all(mags):
        logs = np.log(mags).tolist()
    else:
        with np.errstate(divide="ignore"):  # a zero pivot gives -inf
            logs = np.log(mags).tolist()
    logabs = 0.0
    for x in logs:
        logabs += x
    if shift:
        logabs += shift * (0.5 * n * math.log(2.0))
    return int(sign), logabs


def pfaffian_signed_log(b: np.ndarray):
    """(sign, log|Pf|) by Parlett-Reid elimination with pivoting, per matrix.

    b is one antisymmetric matrix (d, d) or a stack (..., d, d), d even.
    One matrix gives a Python (int, float) pair; a stack gives two arrays of
    its leading shape, the signs as floats.  Each elimination step runs
    over the whole stack, but a member's pivots and row swaps are its own,
    so every member gets the value it gets alone.  One matrix with
    d <= _FLOAT_DIM takes the same steps on Python floats (_pfaffian_rows)
    and gets bit for bit the value it gets in a stack.  A singular member
    gives (0, -inf) and leaves the others unchanged.  A member with an
    entry past 2^(_TOP - d) is divided by a power of two 2^k before the
    elimination, and (d/2) k ln 2 is added to its log, so entries up to
    the float maximum give finite values; the others are unchanged.  A NaN
    or infinite entry raises ValueError, as does a matrix that is not square, of odd
    dimension or not antisymmetric within 1e-12.  Returning logs keeps a
    value usable when the Pfaffian itself would under- or overflow (large
    matrices, strongly decaying entries).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 2 and len(b) == b.shape[1] <= _FLOAT_DIM and len(b) % 2 == 0:
        return _pfaffian_rows(_antisymmetric_rows(b))
    lead = b.shape[:-2]
    a = _validate_antisymmetric(b)
    n = a.shape[-1]
    big = a.max(axis=(1, 2), initial=0.0)  # antisymmetric: the largest |entry|
    shift = np.where(big > math.ldexp(1.0, _TOP - n), np.frexp(big)[1] - (_TOP - n), 0)
    if shift.any():
        a = np.ldexp(a, -shift[:, None, None])
    sign = np.ones(len(a))
    pivots = np.ones((len(a), max(n // 2, 1)))  # an empty matrix has Pf = 1
    for k in range(0, n - 2, 2):
        kp = np.abs(a[:, k + 1 :, k]).argmax(axis=1) + (k + 1)
        moved = np.flatnonzero(kp != k + 1)
        if moved.size:
            # exchange row and then column k + 1 with the pivot's, in the members that move
            p = kp[moved]
            rows = a[moved, k + 1]
            a[moved, k + 1] = a[moved, p]
            a[moved, p] = rows
            cols = a[moved, :, k + 1]
            a[moved, :, k + 1] = a[moved, :, p]
            a[moved, :, p] = cols
            sign[moved] = -sign[moved]
        pivots[:, k // 2] = piv = a[:, k, k + 1]
        # a zero pivot leaves a zero row: divided by 1 it eliminates nothing
        t = a[:, k, k + 2 :] / np.where(piv == 0.0, 1.0, piv)[:, None]
        w = t[:, :, None] * a[:, None, k + 2 :, k + 1]
        a[:, k + 2 :, k + 2 :] += w - w.transpose(0, 2, 1)
    if n:
        pivots[:, -1] = a[:, n - 2, n - 1]
    sign *= np.sign(pivots).prod(axis=1)
    pivots = np.abs(pivots)
    if pivots.all():
        logabs = np.log(pivots).cumsum(axis=1)[:, -1]  # pivot by pivot, as a running sum
    else:
        with np.errstate(divide="ignore"):  # a zero pivot gives -inf
            logabs = np.log(pivots).cumsum(axis=1)[:, -1]
    if shift.any():
        logabs += shift * (0.5 * n * math.log(2.0))
    if not lead:
        return int(sign[0]), float(logabs[0])
    return sign.reshape(lead), logabs.reshape(lead)


def determinant_signed_log(m: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of a real square matrix; sign is 0 (and log|det| -inf) if it is singular."""
    with np.errstate(divide="ignore"):
        return np.linalg.slogdet(np.asarray(m, dtype=float))
