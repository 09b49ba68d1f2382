"""The joint eigenvalue density, assembled from the crossover term tables.

At q = 0 and q = 1 (tau = 0 and tau = inf) the density is a closed form,
C |Delta|^power prod_j x_j^p e^{-x_j} with x = lambda / s.  At 0 < q < 1
it is a constant times Delta(lambda), the edge weights x^{2a+1} e^{-x} and
the Pfaffian of G, whose entries are products of the term table
T[j, k] = e^{-k tau} gamma_k wt_k(x_j), x = lambda / (2 omega), that
``ensemble.jpd`` reads from its weighted-Laguerre streams.  Every factor
is attached in log space.

One point set is summed in floats, point by point (``density``); a stack
in numpy over its sets (``densities``), with the same terms in the same
order, so the two differ only where numpy's log and exp round differently
from the math module's.  On one set the numpy sums would cost about
10 us more per call.  Both take G's Pfaffian by one stacked path
(``_g_pfaffian``).
"""

from __future__ import annotations

import math
from math import lgamma as log_gamma

import numpy as np

from . import linalg
from .specfun import edge_log_pow

__all__ = ["density", "densities"]


def _log_c0(cfg) -> float:
    n, a = cfg.n, cfg.a
    out = 0.5 * n * math.log(math.pi) - n * math.log(2.0)
    for k in range(1, n + 1):
        out -= log_gamma(0.5 * k + 1.0) + log_gamma(0.5 * k + a + 0.5)
    return out


def _endpoint_form(cfg, tau: float):
    """ln C, the power of |Delta|, the scale s and the edge power p at tau = 0 or inf."""
    n, a, omega = cfg.n, cfg.a, cfg.omega
    if tau == 0.0:
        return _log_c0(cfg) - 0.5 * n * (n + 1) * math.log(2.0 * omega), 1.0, 2.0 * omega, a
    out = 0.0
    for k in range(1, n + 1):
        out -= log_gamma(k + 1.0) + log_gamma(k + 2.0 * a + 1.0)
    return out - n * n * math.log(omega), 2.0, omega, 2.0 * a + 1.0


def _log_const(cfg, tau: float) -> float:
    """ln of the constant of the Pfaffian form at 0 < tau < inf."""
    n = cfg.n
    return (
        (n + 1) // 2 * math.log(2.0)
        + 0.5 * n * (n - 1) * tau
        - 0.5 * n * (n + 1) * math.log(2.0 * cfg.omega)
        + _log_c0(cfg)
    )


def _log_vandermonde(lams: list) -> tuple[int, float]:
    sign = 1
    logabs = 0.0
    n = len(lams)
    for j in range(n):
        for k in range(j + 1, n):
            d = lams[j] - lams[k]
            if d == 0.0:
                return 0, -math.inf
            if d < 0.0:
                sign = -sign
            logabs += math.log(abs(d))
    return sign, logabs


def _g_pfaffian(t: np.ndarray, n: int):
    """Sign and ln|Pf| of G for each set, from its term table t[set, point, order].

    G = 2 (g - g^T), g = C O^T with C the running sums of the even orders and
    O the odd orders (see ensemble._g_table), for every set at once; odd N
    borders G with the one-point companion column, the even totals.
    """
    m = (n + 1) // 2
    inner = np.cumsum(t[..., 0::2], axis=2)
    g = inner @ t[..., 1::2].transpose(0, 2, 1)
    f = np.zeros((len(t), 2 * m, 2 * m))
    f[:, :n, :n] = 2.0 * (g - g.transpose(0, 2, 1))
    if 2 * m > n:
        f[:, :n, n] = inner[..., -1]
        f[:, n, :n] = -inner[..., -1]
    return linalg.pfaffian_signed_log(f)


def density(lams: list, cfg, tau: float, t: np.ndarray | None) -> float:
    """The joint density at one point set lams (floats); t is its term table at 0 < tau < inf."""
    dl_sign, logdelta = _log_vandermonde(lams)
    if logdelta == -math.inf:
        return 0.0
    if t is None:
        logp, power, scale, p = _endpoint_form(cfg, tau)
        logp += power * logdelta
        sign = 1.0
    else:
        pf_sign, pf_log = _g_pfaffian(t[None], cfg.n)
        if pf_sign[0] == 0.0:
            return 0.0
        logp = _log_const(cfg, tau) + logdelta + float(pf_log[0])
        sign = float(pf_sign[0]) * dl_sign
        # the weight and Pfaffian factors combine to x^{2a+1}
        scale, p = 2.0 * cfg.omega, 2.0 * cfg.a + 1.0
    for x in (lam / scale for lam in lams):
        logp += edge_log_pow(x, p) - x
    if logp == -math.inf:
        return 0.0
    try:
        return sign * math.exp(logp)
    except OverflowError:  # past the float range: inf, as densities gives
        return sign * math.inf


def densities(sets: np.ndarray, cfg, tau: float, t: np.ndarray | None) -> np.ndarray:
    """density over a stack of point sets (rows of sets); t[set, point, order] at 0 < tau < inf."""
    j, k = np.triu_indices(cfg.n, 1)
    d = sets[:, j] - sets[:, k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logdelta = np.log(np.abs(d)).cumsum(axis=1)[:, -1] if d.shape[1] else np.zeros(len(d))
        if t is None:
            logp, power, scale, p = _endpoint_form(cfg, tau)
            logp = logp + power * logdelta
            sign = 1.0
        else:
            pf_sign, pf_log = _g_pfaffian(t, cfg.n)
            logp = _log_const(cfg, tau) + logdelta
            logp += pf_log
            sign = pf_sign * np.sign(d).prod(axis=1)
            scale, p = 2.0 * cfg.omega, 2.0 * cfg.a + 1.0
        x = sets / scale
        for term in (-x if p == 0.0 else p * np.log(x) - x).T:  # ln(x^p e^{-x}), point by point
            logp += term
        return np.where((logdelta == -math.inf) | (logp == -math.inf), 0.0, sign * np.exp(logp))
