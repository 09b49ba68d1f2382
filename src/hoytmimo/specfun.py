"""Special functions used by the analytic eigenvalue formulas.

Everything here is pure and thread-safe.  The weighted Laguerre values
come from one streamed recurrence on rescaled values with a single scale
factor, so high orders (n up to a few 10^4) never overflow, and from a
log-space join where that factor would underflow, so large x never does.
The recurrence runs on one point (``weighted_laguerre``) or on a vector of
points (``weighted_laguerre_array``) with the same float operations; the
vector one steps in place in three rotating buffers, its scalars held in
reused 0-d arrays, which numpy takes faster than Python floats, and a
reader may step it several orders per read (``send(n)``) without forming
the values of the orders it skips.
The lower incomplete gamma steps up from gamma(1, x) or gamma(1/2, x),
which libm's expm1 and erf give; it seeds the half-range integrals of the
q = 0 closed forms (see ``ensemble._half_range``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count

import numpy as np

__all__ = [
    "edge_log_pow",
    "edge_pow",
    "weighted_laguerre",
    "weighted_laguerre_array",
    "lower_incomplete_gamma",
    "bessel_i0e",
]


def edge_log_pow(x: float, p: float) -> float:
    """ln(x^p) for x >= 0; at x = 0 it is -inf (p > 0), 0 (p = 0) or +inf (p < 0)."""
    if x == 0.0:
        return -math.inf if p > 0.0 else (math.inf if p < 0.0 else 0.0)
    return p * math.log(x)


def edge_pow(x: float, p: float) -> float:
    """x^p for x >= 0; at x = 0 it is 0 (p > 0), 1 (p = 0) or +inf (p < 0)."""
    return math.exp(edge_log_pow(x, p))


_RESCALE_LIMIT = 1e270
_SCALE_FLOOR = 1e-290


def weighted_laguerre(alpha: float, x: float) -> Iterator[float]:
    """Yield e^{-x} L_k^{(alpha)}(2x) for k = 0, 1, 2, ... without end.

    The recurrence runs on values v_k rescaled past 1e270; each value is
    v_k * scale, scale = e^{offset - x} recomputed only at a rescale.  While
    scale would underflow (x above about 667) values are joined in log
    space instead, so large x never zeroes the sequence.
    """
    if x < 0.0:
        raise ValueError("weighted_laguerre: x must be >= 0")
    z = 2.0 * x
    offset = 0.0  # log of the factor divided out of the recurrence so far
    scale = math.exp(-x)
    vkm1, vk = 0.0, 1.0  # L_{-1} = 0, L_0 = 1
    for k in count(0.0):  # a float order: exact, and no int allocated per step
        if scale > _SCALE_FLOOR or vk == 0.0:
            yield vk * scale
        else:
            yield math.copysign(math.exp(math.log(abs(vk)) + offset - x), vk)
        vkm1, vk = vk, ((2.0 * k + 1.0 + alpha - z) * vk - (k + alpha) * vkm1) / (k + 1.0)
        if abs(vk) > _RESCALE_LIMIT:  # vkm1 passed this check one step earlier
            s = math.log(abs(vk))
            f = math.exp(-s)
            vkm1 *= f
            vk *= f
            offset += s
            scale = math.exp(offset - x)


def weighted_laguerre_array(alpha: float, x) -> Iterator[np.ndarray]:
    """Yield e^{-x} L_k^{(alpha)}(2x) over an array of points, k = 0, 1, 2, ...

    The recurrence of ``weighted_laguerre`` run over every point at once:
    each column keeps its own offset and scale and is rescaled on its own
    step, with the scalar stream's float operations, so its values are the
    scalar ones.  Only the log-space join uses numpy's exp and log, which
    may differ from the math module's in the last few ulp.

    ``next`` reads the next order; ``send(n)`` steps n >= 1 orders and
    yields the last of them, so a reader of every other order forms no
    values at the orders it skips, and the values it gets are those of
    the one-order read, bit for bit.

    A step works in place in three buffers kept for the whole stream, which
    rotate as vk and vkm1 move on, and the step's scalars (2k + 1 + alpha,
    k + alpha and k + 1) enter as reused 0-d arrays, which numpy takes
    faster than Python floats.  Each value yielded is a new array, so a
    caller may keep it.
    """
    x = np.array(x, dtype=float)
    xs = x.tolist()
    if xs and min(xs) < 0.0:
        raise ValueError("weighted_laguerre_array: x must be >= 0")
    z = 2.0 * x
    offset = np.zeros_like(x)
    scale = np.array([math.exp(-t) for t in xs])
    # a column is joined in log space while its scale is at or below the floor
    any_joined = bool(xs) and math.exp(-max(xs)) <= _SCALE_FLOOR
    vkm1, vk, t = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    c0, ka, k1 = np.empty(()), np.empty(()), np.empty(())
    # bkm1, bk bound |vkm1|, |vk| over every column (the recurrence with each
    # term at its largest magnitude), so the columns are only searched for a
    # rescale once the bound passes half the limit
    z_lo, z_hi = (2.0 * min(xs), 2.0 * max(xs)) if xs else (0.0, 0.0)
    bkm1, bk = 0.0, 1.0
    k = 0.0
    while True:
        out = vk * scale
        if any_joined:
            m = (scale <= _SCALE_FLOOR) & (vk != 0.0)
            out[m] = np.copysign(np.exp(np.log(np.abs(vk[m])) + offset[m] - x[m]), vk[m])
        steps = yield out
        for _ in range(1 if steps is None else steps):
            c = 2.0 * k + 1.0 + alpha
            c0[()], ka[()], k1[()] = c, k + alpha, k + 1.0
            # t = ((c - z) * vk - (k + alpha) * vkm1) / (k + 1), then the buffers rotate
            np.subtract(c0, z, t)
            t *= vk
            vkm1 *= ka
            t -= vkm1
            t /= k1
            t, vkm1, vk = vkm1, vk, t
            bkm1, bk = bk, (max(abs(c - z_lo), abs(c - z_hi)) * bk + abs(k + alpha) * bkm1) / (k + 1.0)
            k += 1.0
            if bk > 0.5 * _RESCALE_LIMIT:
                for i in np.flatnonzero(np.abs(vk) > _RESCALE_LIMIT).tolist():
                    s = math.log(abs(vk[i]))
                    f = math.exp(-s)
                    vkm1[i] *= f
                    vk[i] *= f
                    offset[i] += s
                    scale[i] = math.exp(offset[i] - x[i])
                # initial= keeps an empty x's stream going (its bounds become 0)
                any_joined = float(scale.min(initial=math.inf)) <= _SCALE_FLOOR
                bkm1, bk = float(np.abs(vkm1).max(initial=0.0)), float(np.abs(vk).max(initial=0.0))


def lower_incomplete_gamma(s: float, x):
    """gamma(s, x) = int_0^x y^{s-1} e^{-y} dy for s a positive integer or half-integer.

    x >= 0 is a float or an array, and the result has its shape.  From
    gamma(1, x) = -expm1(-x) or gamma(1/2, x) = sqrt(pi) erf(sqrt(x)) (libm)
    it steps up by gamma(k+1, x) = k gamma(k, x) - x^k e^{-x} (DLMF 8.8.1).
    The error stays a few ulp of Gamma(s), also where gamma(s, x) is far
    smaller (x well below s).
    """
    two_s = 2.0 * s
    if s <= 0.0 or two_s != round(two_s):
        raise ValueError(f"lower incomplete gamma: s must be a positive (half-)integer, got {s}")
    x = np.asarray(x, dtype=float)
    xs = x.ravel().tolist()
    if xs and min(xs) < 0.0:
        raise ValueError("lower incomplete gamma: x must be >= 0")
    if round(two_s) % 2:
        k = 0.5
        root = np.sqrt(x)  # correctly rounded, as math.sqrt is
        erf = np.fromiter(map(math.erf, root.ravel().tolist()), float, x.size)
        out = math.sqrt(math.pi) * erf.reshape(x.shape)
        term = root * np.exp(-x)
    else:
        k = 1.0
        out = -np.expm1(-x)
        term = x * np.exp(-x)
    while k < s:
        out = k * out - term
        term = term * x
        k += 1.0
    return out


_I0_SERIES_CUTOFF = 30.0


def bessel_i0e(x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_0(x), x >= 0."""
    if x < 0.0:
        raise ValueError("bessel_i0e: x must be >= 0")
    if x < _I0_SERIES_CUTOFF:
        # power series; all terms positive, no cancellation
        t = 1.0
        s = 1.0
        q = 0.25 * x * x
        k = 0
        while True:
            k += 1
            t *= q / (k * k)
            s += t
            if t < 1e-18 * s:
                break
        return s * math.exp(-x)
    # asymptotic series: I_0(x) ~ e^x/sqrt(2 pi x) sum_k ((2k-1)!!)^2/(k! (8x)^k)
    t = 1.0
    s = 1.0
    for k in range(1, 40):
        t_next = t * (2 * k - 1) ** 2 / (8.0 * x * k)
        if t_next >= t:
            break  # past the smallest term; stop before divergence
        t = t_next
        s += t
        if t < 1e-18 * s:
            break
    return s / math.sqrt(2.0 * math.pi * x)
