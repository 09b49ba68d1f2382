"""Special functions used by the analytic eigenvalue formulas.

Everything here is pure and thread-safe.  The weighted Laguerre values
come from one streamed recurrence on rescaled values with a single scale
factor, so high orders (n up to a few 10^4) never overflow, and from a
log-space join where that factor would underflow, so large x never does.
The recurrence runs on one point (``weighted_laguerre``) or on a vector of
points (``weighted_laguerre_array``) with the same float operations.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count

import numpy as np

__all__ = [
    "weighted_laguerre",
    "weighted_laguerre_array",
    "log_upper_incomplete_gamma",
    "bessel_i0e",
]


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
    vkm1, vk = np.zeros_like(x), np.ones_like(x)
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
        yield out
        c = 2.0 * k + 1.0 + alpha
        vkm1, vk = vk, ((c - z) * vk - (k + alpha) * vkm1) / (k + 1.0)
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
            any_joined = min(scale.tolist()) <= _SCALE_FLOOR
            bkm1, bk = float(np.abs(vkm1).max()), float(np.abs(vk).max())


def _erfc_cf_factor(x: float) -> float:
    """F(x) = erfc(x) * exp(x^2) * sqrt(pi), continued fraction for x >= 1.5.

    F(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))), modified Lentz.
    """
    tiny = 1e-300
    f = c = x
    d = 0.0
    for k in range(1, 300):
        ak = 0.5 * k
        d = x + ak * d
        if d == 0.0:
            d = tiny
        c = x + ak / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise RuntimeError("erfc continued fraction failed to converge")


def log_upper_incomplete_gamma(s: float, x: float) -> float:
    """ln of the upper incomplete gamma Gamma(s, x), s a positive

    integer or half-integer, x >= 0.  Runs the upward recurrence
    Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x} entirely in log space so
    large s and x never overflow.
    """
    two_s = 2.0 * s
    if s <= 0.0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(
            f"upper incomplete gamma: s must be a positive integer or "
            f"half-integer, got {s}"
        )
    if x < 0.0:
        raise ValueError("upper incomplete gamma: x must be >= 0")
    if x == 0.0:
        return math.lgamma(s)

    log_x = math.log(x)
    half = round(two_s) % 2 == 1
    if half:
        base = 0.5
        # Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)); past sqrt(x) = 1.5 it is
        # e^{-x} F(sqrt(x)), kept in logs so the erfc underflow never bites
        rx = math.sqrt(x)
        if rx < 1.5:
            cur = 0.5 * math.log(math.pi) + math.log(math.erfc(rx))
        else:
            cur = math.log(_erfc_cf_factor(rx)) - x
    else:
        base = 1.0
        cur = -x  # Gamma(1, x) = e^{-x}
    k = base
    while k < s - 0.5:
        cur = _logaddexp(math.log(k) + cur, k * log_x - x)
        k += 1.0
    return cur


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


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
