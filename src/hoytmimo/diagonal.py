"""The two-point kernel S_N on its diagonal, over an array of points.

``ensemble.level_density`` on an array of lambda and the kernel-integral
check of ``validation`` evaluate S_N(x, x) at many x at once.  One
``specfun.weighted_laguerre_array`` stream runs over all the points: its
first N orders give the LUE core, and at 0 < tau < inf it reads on into
the correction series over the orders N+1, N+3, ..., whose coefficients
are stepped once for all points.  Each point keeps ``ensemble._series``'s
running sum and its three-small-terms stop, and every weight is
reattached point by point with ``specfun.edge_pow``, so each value is
``ensemble.kernel_s(x, x)`` bit for bit, except where the stream joins in
log space (x above about 667).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import ensemble  # which imports this module: its names are read at call time
from .specfun import edge_pow, weighted_laguerre_array

__all__ = ["kernel_s_diagonal"]


def _series(
    ws, a: float, tau: float, k0: int, m: int, ctrl: ensemble.SeriesControl
) -> np.ndarray:
    """ensemble._series at m points at once; ws is their array stream at order k0.

    Every point sums its own terms and stops on its own three small terms,
    so its total does not depend on the other points.  The stream runs on
    until the last point stops; a point still running after ``max_terms``
    terms raises.
    """
    decay = math.exp(-2.0 * tau)
    coef = ensemble._gamma(a, k0)
    h = 0.5 * (k0 + 1)
    total = np.zeros(m)
    small1 = small2 = np.zeros(m, dtype=bool)  # whether the last two terms were small
    live = np.ones(m, dtype=bool)
    out = np.empty(m)
    for w in itertools.islice(ws, 0, 2 * ctrl.max_terms, 2):
        term = coef * w
        total += term
        small = np.abs(term) <= ctrl.rel_tol * np.abs(total)
        hit = small & small1 & small2
        if np.count_nonzero(hit):
            hit &= live  # a stopped point may see three small terms again: keep its first total
            out[hit] = total[hit]
            live &= ~hit
            if not np.count_nonzero(live):
                return out
        small2, small1 = small1, small
        coef *= decay * h / (h + a + 1.0)
        h += 1.0
    raise ensemble.SeriesTruncationError("density correction series", tau, ctrl.max_terms)


def kernel_s_diagonal(
    x: np.ndarray, cfg: ensemble.ChannelConfig, tau: float, ctrl: ensemble.SeriesControl
) -> np.ndarray:
    """S_N(x, x) at every point of the 1-D array x >= 0, as ``ensemble.kernel_s`` gives it."""
    n, a = cfg.n, cfg.a
    xs = x.tolist()
    if not xs:
        return np.empty(0)
    ws = weighted_laguerre_array(2.0 * a + 1.0, x)
    w = np.array(list(itertools.islice(ws, n)))
    # each point's orders contiguous in memory, and a third axis: the product
    # of the rows keeps that layout, so np.dot over it takes kernel_s's 1-D
    # dot product point by point (a 2-D np.dot is one matrix-vector product,
    # which rounds differently)
    rows = np.ascontiguousarray(w.T).T[:, :, None]
    core = ensemble._s_lue_core(rows, rows, cfg)[:, 0]
    if tau == 0.0:
        # x^a [x^{a+1} S_lue-core + wt_{N-1}(x) D(x)], as kernel_s at x = y
        d = ensemble._d_zero(ensemble._half_range(w, x, cfg)[n], cfg)
        out = []
        for u, c, lead, du in zip(xs, core.tolist(), w[n - 1].tolist(), d.tolist()):
            if u == 0.0:
                out.append(edge_pow(0.0, 2.0 * a + 1.0) * c + edge_pow(0.0, a) * lead * du)
            else:
                out.append(edge_pow(u, a) * (edge_pow(u, a + 1.0) * c + lead * du))
        return np.array(out)
    if not math.isinf(tau):
        next(ws)  # the series reads on from order N + 1
        core += ensemble._s_corr_lead(w, cfg, tau) * _series(ws, a, tau, n + 1, len(xs), ctrl)
    return np.array([edge_pow(u, 2.0 * a + 1.0) for u in xs]) * core
