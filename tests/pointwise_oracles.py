"""The paper's building blocks at one point or one pair of points, on x = lambda / (2 omega).

Test oracles: the skew-orthogonal polynomials phi_j, their duals psi_j,
the one-point companion omega, the tau = 0 two-point function g_zero and
the kernels A_N and B_N.  The tests check them against their defining
integrals and identities, and the package's whole-set evaluators against
them.  ``hoytmimo.ensemble`` forms the same functions over a whole point
set (``ensemble._blocks``); these are read from its parts.
"""

from __future__ import annotations

import itertools
import math
from math import lgamma as log_gamma

import numpy as np

from hoytmimo.ensemble import (
    DEFAULT_CONTROL, ChannelConfig, SeriesControl, _blocks, _g_table, _gamma, _half_range,
    _log_alpha, _pair_matrix, _phi_core, _phi_rows, _psi_zero, _row, _series, _streams,
    _term_rows, _term_table,
)
from hoytmimo.specfun import edge_pow, weighted_laguerre

__all__ = ["g_zero", "omega_tau", "skew_phi", "skew_psi", "kernel_a", "kernel_b"]


def _row_to(x: float, cfg: ChannelConfig, size: int) -> np.ndarray:
    """wt_0..wt_{m-1}(x), m = max(N, size): the row of ``ensemble._row``, read on to size orders."""
    ws = weighted_laguerre(2.0 * cfg.a + 1.0, float(x))
    m = max(cfg.n, size)
    return np.fromiter(itertools.islice(ws, m), float, m)


def g_zero(x: float, y: float) -> float:
    """The tau = 0 limit: sgn(x - y)/2."""
    if x > y:
        return 0.5
    if x < y:
        return -0.5
    return 0.0


def omega_tau(
    x: float, a: float, tau: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """One-point companion function; exactly 1/2 at tau = 0."""
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return 0.5
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0  # carries the w_{a+1} weight, a + 1 > 0
    if math.isinf(tau):
        # only the mu = 0 term survives, and wt_0(x) = e^{-x}
        return math.exp((a + 1.0) * math.log(x)) * _gamma(a, 0) * math.exp(-x)
    inner = _g_table(_term_table(_term_rows(_streams((x,), a), a, tau, ctrl))[None])[1]
    return math.exp((a + 1.0) * math.log(x)) * float(inner[0, 0])


def _psi_series(x: float, a: float, tau: float, ctrl: SeriesControl, start: int) -> float:
    """sum_{nu >= start} e^{-(2 nu + 1) tau} gamma_{2 nu + 1} wt_{2 nu + 1}(x)."""
    k0 = 2 * start + 1
    ws = itertools.islice(weighted_laguerre(2.0 * a + 1.0, x), k0, None)
    return math.exp(-k0 * tau) * _series(ws, a, tau, k0, ctrl, "dual-function series")


def _psi_core(
    j: int, x: float, cfg: ChannelConfig, tau: float, ctrl: SeriesControl
) -> float:
    """psi_j / x^{a+1} for tau > 0, from the row of x or its series."""
    n, a = cfg.n, cfg.a
    mu, r = divmod(j, 2)
    if cfg.c and j == n - 1:
        return -2.0 * _psi_series(x, a, tau, ctrl, mu)
    pref = math.exp((a + 1.5) * math.log(2.0))
    k = 2 * mu + cfg.c
    la = _log_alpha(a, k)
    if r == 1:
        return pref * math.exp(-k * tau - la) * _row_to(x, cfg, k + 1)[k]
    if not cfg.c:
        s = _psi_series(x, a, tau, ctrl, mu)
        fac = 0.5 * math.exp(log_gamma(mu + a + 1.0) - log_gamma(mu + 1.0) - la)
        return -pref * fac * s
    # finite sum over nu = 0..mu of even-order polynomials
    w = _row_to(x, cfg, 2 * mu + 1)
    g = np.array([_gamma(a, 2 * nu) for nu in range(mu + 1)])
    es = np.exp(-2.0 * tau * np.arange(mu + 1))
    fac = 0.5 * math.exp(log_gamma(mu + a + 1.5) - log_gamma(mu + 1.5) - la)
    return pref * fac * float(np.dot(es * g, w[0 : 2 * mu + 1 : 2]))


def _check_index(j: int, cfg: ChannelConfig) -> None:
    if j < 0:
        raise ValueError("index must be >= 0")
    if cfg.n % 2 == 1 and j > cfg.n - 1:
        raise ValueError(
            f"odd N = {cfg.n} defines indices 0..{cfg.n - 1} only (got {j})"
        )


def skew_phi(
    j: int, x: float, cfg: ChannelConfig, tau: float
) -> float:
    """Weighted skew-orthogonal polynomial phi_j at x = lambda/(2 omega)."""
    _check_index(j, cfg)
    if math.isinf(tau):
        raise ValueError("phi diverges at tau = inf; use the q = 1 closed forms")
    return edge_pow(x, cfg.a) * _phi_core(j, _row_to(x, cfg, j + 2), cfg, tau)


def skew_psi(
    j: int,
    x: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Dual function psi_j at x = lambda/(2 omega); series truncated by ctrl."""
    _check_index(j, cfg)
    if math.isinf(tau):
        raise ValueError("psi vanishes at tau = inf; use the q = 1 closed forms")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if tau == 0.0:
        w = _row_to(x, cfg, j + 1)
        return float(_psi_zero(j, w, _half_range(w, x, cfg), edge_pow(x, cfg.a + 1.0), cfg))
    if x == 0.0:
        return 0.0  # psi carries the w_{a+1} weight
    return math.exp((cfg.a + 1.0) * math.log(x)) * _psi_core(j, x, cfg, tau, ctrl)


def kernel_a(
    x: float,
    y: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Antisymmetric kernel A_N(x, y): x^a y^a times a finite sum over stripped phi pairs.

    The sum is the (x, y) entry of the A block of ``ensemble._blocks`` over
    the stack of one set [[x, y]], before its balance factor.  So at x = 0
    of a square array A is a signed infinity.
    """
    if math.isinf(tau):
        raise ValueError("A_N diverges as tau -> inf (q = 1 is determinantal)")
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    if cfg.n - cfg.c == 0 or x == y:
        return 0.0  # N = 1 has no phi pair, and A vanishes on the diagonal
    w = np.array([_row(u, cfg)[0] for u in (x, y)]).T[:, None, :]  # orders first, one set
    phi = _phi_rows(w, cfg, tau)
    total = float(_pair_matrix(phi[..., 1::2], phi[..., 0::2])[0, 0, 1])
    return edge_pow(x, cfg.a) * edge_pow(y, cfg.a) * total


def kernel_b(
    x: float,
    y: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Kernel B_N(x, y): the infinite psi-pair tail plus parity term.

    The (x, y) entry of the B block of ``ensemble._blocks`` over the stack
    of one set [[x, y]].
    For tau > 0, tail and parity term together are minus the G double
    series restricted to the index pairs past the first N (for odd N the
    opposite-parity pairs, see ``ensemble._g_table``), formed from the term
    table of [x, y] as jpd forms G.  That stays accurate at large tau, where
    the identity B = -G + (finite psi-pair sum) + parity term would cancel
    e^{2N tau}-fold.  The block carries a balance factor e^{(N-1) tau} and
    no weight; both are undone here.  At tau = 0 the identity is used, with
    the closed-form duals, where every piece is exact.
    """
    if math.isinf(tau):
        raise ValueError("B_N vanishes as tau -> inf (q = 1 is determinantal)")
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    if tau > 0.0 and (x == 0.0 or y == 0.0):
        return 0.0  # carries w_{a+1} in each argument
    b = float(_blocks(np.array([[x, y]]), cfg, tau, ctrl)[2][0, 0, 1])
    if tau == 0.0:
        return b
    log_w = (cfg.a + 1.0) * (math.log(x) + math.log(y)) - (cfg.n - 1.0) * tau
    return math.exp(log_w) * b
