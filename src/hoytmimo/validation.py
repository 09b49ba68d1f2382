"""Cross-module consistency checks bundled for the `validate` command.

Each check pits two independent computational routes against each other
(series vs closed form, Pfaffian vs determinant, kernel vs quadrature),
so a pass means the analytic machinery is self-consistent end to end.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import ensemble, linalg
from .ensemble import (
    ChannelConfig,
    SeriesControl,
    SeriesTruncationError,
    correlation_fn,
    jpd,
    kernel_s,
)
from .quadrature import gk15, refine_panels
from .specfun import weighted_laguerre

__all__ = ["run_checks", "g_tau_transposed", "jpd_normalization_n2", "jpd_normalization_n3"]


def g_tau_transposed(x: float, y: float, a: float, tau: float, ctrl: SeriesControl) -> float:
    """``ensemble.g_tau`` summed in the transposed order.

    The outer loop runs over the even index and each row is an infinite
    sum over the odd index; ``g_tau`` forms the product of the running
    even-order sums with the odd-order terms of each point's term table,
    truncated per point.  The two differ in truncation shape, and here
    each Gamma ratio comes from ``lgamma`` where ``g_tau`` steps them by
    recurrence, so their agreement checks the series.  Every inner term
    counts against ``max_terms``, and the row sums stop on their own rule:
    three rows in a row adding at most ``rel_tol`` of the total.  Each
    point's weighted polynomials are read from one stream into a list as
    the orders grow.
    """
    if x == y or x == 0.0 or y == 0.0:
        return 0.0
    x_stream = weighted_laguerre(2.0 * a + 1.0, x)
    y_stream = weighted_laguerre(2.0 * a + 1.0, y)
    wx, wy = [], []
    total = 0.0
    small_rows = 0
    decay = math.exp(-2.0 * tau)
    terms = 0
    mu = 0
    ehalf = 1.0
    while True:
        row_acc = 0.0
        nu = mu
        eodd = math.exp(-(2.0 * nu + 1.0) * tau)
        g_even = ensemble._gamma(a, 2 * mu)
        small = 0
        while True:
            need = max(2 * mu, 2 * nu + 1)
            while len(wx) <= need:
                wx.append(next(x_stream))
                wy.append(next(y_stream))
            term = (
                2.0
                * ehalf
                * eodd
                * g_even
                * ensemble._gamma(a, 2 * nu + 1)
                * (wx[2 * mu] * wy[2 * nu + 1] - wx[2 * nu + 1] * wy[2 * mu])
            )
            terms += 1
            if terms > ctrl.max_terms:
                raise SeriesTruncationError("crossover kernel series", tau, ctrl.max_terms)
            row_acc += term
            ref = abs(total + row_acc)
            if abs(term) <= ctrl.rel_tol * ref and ref > 0.0:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            nu += 1
            eodd *= decay
        total += row_acc
        if abs(row_acc) <= ctrl.rel_tol * abs(total):
            small_rows += 1
            if small_rows == 3:
                return math.exp((a + 1.0) * math.log(x * y)) * total
        else:
            small_rows = 0
        mu += 1
        ehalf *= decay


def jpd_normalization_n2(
    cfg: ChannelConfig, q: float, ctrl: SeriesControl, points: int = 48, lam_hi: float = 28.0
) -> float:
    """2-D normalization integral over the ordered region, times 2!.

    Both variables run on u = sqrt(lambda) grids so the square-array edge
    and the |lambda_1 - lambda_2| crease stay away from the quadrature.
    """
    nodes, wts = leggauss(points)
    half = 0.5 * (nodes + 1.0)
    v = math.sqrt(lam_hi) * half
    wv = math.sqrt(lam_hi) * 0.5 * wts
    total = 0.0
    for i2 in range(points):
        u = v[i2] * half
        wu = v[i2] * 0.5 * wts
        row = sum(
            wu[i1] * 2.0 * u[i1] * jpd([u[i1] ** 2, v[i2] ** 2], cfg, q, ctrl)
            for i1 in range(points)
        )
        total += wv[i2] * 2.0 * v[i2] * row
    return 2.0 * total


def jpd_normalization_n3(
    cfg: ChannelConfig, q: float, ctrl: SeriesControl, points: int = 40, lam_hi: float = 30.0
) -> float:
    """3-D normalization integral over the ordered region, times 3!."""
    nodes, wts = leggauss(points)
    half = 0.5 * (nodes + 1.0)
    total = 0.0
    x3 = lam_hi * half
    w3 = lam_hi * 0.5 * wts
    for i3 in range(points):
        x2 = x3[i3] * half
        w2 = x3[i3] * 0.5 * wts
        for i2 in range(points):
            x1 = x2[i2] * half
            w1 = x2[i2] * 0.5 * wts
            row = sum(
                w1[i1] * jpd([x1[i1], x2[i2], x3[i3]], cfg, q, ctrl)
                for i1 in range(points)
            )
            total += w3[i3] * w2[i2] * row
    return 6.0 * total


def _check(name, value, tolerance, target=0.0, detail=""):
    err = abs(value - target)
    return {
        "name": name,
        "passed": bool(err <= tolerance),
        "value": value,
        "target": target,
        "tolerance": tolerance,
        "detail": detail,
    }


def run_checks(ctrl: SeriesControl, quick: bool) -> list[dict]:
    checks = []
    rng = np.random.default_rng(2024)

    # Pfaffian^2 = det on random antisymmetric matrices
    worst = 0.0
    dims = (2, 4, 6, 8) if quick else (2, 4, 6, 8, 10, 12)
    for dim in dims:
        b = rng.normal(size=(dim, dim))
        b = b - b.T
        sign, logabs = linalg.pfaffian_signed_log(b)  # the Parlett-Reid path jpd takes
        pf = sign * math.exp(logabs)
        det = np.linalg.det(b)
        worst = max(worst, abs(pf * pf - det) / abs(det))
    checks.append(_check("pfaffian_squared_equals_det", worst, 1e-10))

    # dual-representation equality of the antisymmetric kernel series
    worst = 0.0
    combos = [(0.5, 0.0), (1.0, 0.5)] if quick else [
        (0.2, -0.5), (0.2, 0.0), (0.5, 0.5), (1.0, 1.5), (3.0, 0.0),
    ]
    for tau, a in combos:
        v1 = g_tau_transposed(0.7, 1.9, a, tau, ctrl)
        v2 = ensemble.g_tau(0.7, 1.9, a, tau, ctrl)
        worst = max(worst, abs(v1 - v2) / abs(v2))
    checks.append(_check("g_dual_representation_equality", worst, 1e-8))

    # JPD normalization, N = 2
    cfg2 = ChannelConfig(2, 2)
    qs = (0.5,) if quick else (0.0, 0.5, 1.0)
    for q in qs:
        total = jpd_normalization_n2(cfg2, q, ctrl)
        checks.append(_check(f"jpd_normalization_n2_q{q:g}", total, 1e-4, target=1.0))

    # JPD normalization, N = 3
    if not quick:
        cfg3 = ChannelConfig(3, 4)
        for q in (0.0, 0.5, 1.0):
            total = jpd_normalization_n3(cfg3, q, ctrl)
            checks.append(_check(f"jpd_normalization_n3_q{q:g}", total, 1e-3, target=1.0))

    # R2 vs 2 * JPD at N = 2
    worst = 0.0
    for _ in range(5):
        pts = rng.uniform(0.05, 8.0, size=2)
        r2 = correlation_fn(pts, cfg2, 0.5, ctrl)
        p2 = 2.0 * jpd(pts, cfg2, 0.5, ctrl)
        worst = max(worst, abs(r2 - p2) / abs(p2))
    checks.append(_check("r2_vs_jpd_n2", worst, 1e-4))

    # kernel integral = N: one integrand row in u = sqrt(lambda), one starting panel
    taus = (0.7,) if quick else (0.0, 0.7, math.inf)
    sizes = ((2, 2), (3, 4)) if quick else ((2, 2), (3, 4), (4, 5), (5, 6))
    lo, hi = np.array([0.0]), np.array([math.sqrt(45.0)])
    for nt, nr in sizes:
        cfg = ChannelConfig(nt, nr)
        for tau in taus:

            def f(u):
                return [[2.0 * t * kernel_s(t * t, t * t, cfg, tau, ctrl) for t in u.tolist()]]

            (val,), _ = refine_panels(f, lo, hi, *gk15(f, lo, hi), 1e-9, 0.0)
            checks.append(
                _check(f"kernel_s_integral_n{cfg.n}_tau{tau:g}", float(val), 1e-6, target=cfg.n)
            )
    return checks
