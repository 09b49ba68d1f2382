"""Ergodic Shannon capacity from q-independent Laguerre moments.

With x = lambda / (2 omega), snr = P / N_t and k_j = N + 1 + 2j, the level
density is the q = 1 density plus a series whose coefficients alone depend
on q (kernel_s on the diagonal), so for 0 < q < 1

    C(q) = C_1 + 2 r_N e^{-2 tau} sum_j e^{-2 j tau} gamma_{k_j} M_j,
    M_j  = int log2(1 + snr lambda) x^{2a+1} wt_{N-1}(x) wt_{k_j}(x) dlambda / (2 omega),

where C_1 is the q = 1 capacity (the same integral over the LUE core) and
the moments M_j do not depend on q.  At q = 0 the series is replaced by the
tau = 0 bracket of kernel_s, x^a wt_{N-1}(x) D(x).  So one node set in
u = sqrt(lambda) serves every q of a call: the integrand has one row per q,
the weighted Laguerre values stream through all nodes at once, and each
moment is folded into every q's row as it is read; no moment table is kept.

The series length J is fixed before the moments are integrated.  Since
|wt_k| <= C(k + 2a + 1, k) (DLMF 18.14.8), |M_j| <= C(k_j + 2a + 1, k_j) A
with A = int |log2(1 + snr lambda) x^{2a+1} wt_{N-1}(x)| dlambda / (2 omega).
These bounds shrink by rho_j = e^{-2 tau} (k_j + 2a + 2) / (k_j + 2) per
step, which approaches e^{-2 tau} monotonically, so the unsummed tail past J
is at most the J-th bound over 1 - max(rho_J, e^{-2 tau}).  J is the first
length whose tail bound, at the smallest tau of the call, is at most
``ctrl.rel_tol`` C_1; a J above ``ctrl.max_terms`` raises
SeriesTruncationError before the moments are integrated.  Each q's
``est_abs_error`` is its quadrature error plus its own tail bound.

Power convention: ``power`` arguments are linear; the CLI and the *_db
helpers convert as P = 10^(dB/10).  Capacity is in bits/s/Hz.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    DEFAULT_CONTROL,
    ChannelConfig,
    SeriesControl,
    SeriesTruncationError,
    _d_zero_array,
    _gamma,
    _r_n,
    _s_lue_core,
    crossover_tau,
    mp_support,
)
from .quadrature import gk15, refine_panels
from .specfun import weighted_laguerre_array

__all__ = ["CapacityResult", "ergodic_capacity", "degradation", "capacity_sweep", "db_to_linear"]

_TAIL_ABS = 1e-9
_MAX_TAIL_EXTENSIONS = 40
_PANELS = 24  # equal panels in u on [0, sqrt(cut)]
_TAIL_BATCH = 5  # tail segments added per gk15 call
_ABS_TOL = 1e-12
_REL_TOL = 1e-9


def db_to_linear(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float  # bits/s/Hz
    est_abs_error: float
    config: ChannelConfig
    q: float
    power_db: float


def _nodes(u: np.ndarray, cfg: ChannelConfig, snr: float):
    """What every row needs at the nodes u = sqrt(lambda).

    Returns x, the weight (the Jacobian du times log2(1 + snr lambda) /
    (2 omega)), the weight times x^{2a+1}, the row wt_0..wt_{N-1}(x) with
    the orders on its first axis and the weighted Laguerre stream of the
    nodes, left at order N.
    """
    lam = u * u
    x = lam / (2.0 * cfg.omega)
    weight = (u / cfg.omega) * (np.log(1.0 + snr * lam) / math.log(2.0))
    ws = weighted_laguerre_array(2.0 * cfg.a + 1.0, x)
    row = np.array(list(itertools.islice(ws, cfg.n)))
    return x, weight, weight * _node_pow(x, 2.0 * cfg.a + 1.0), row, ws


def _node_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x^p over the nodes (all x > 0) as e^{p ln x}, the form ensemble._edge_pow takes."""
    return np.exp(p * np.log(x))


def _bound_rows(u: np.ndarray, cfg: ChannelConfig, snr: float) -> np.ndarray:
    """The q = 1 integrand and the integrand of A, the moments' common bound."""
    _, _, factor, row, _ = _nodes(u, cfg, snr)
    return np.array([factor * _s_lue_core(row, row, cfg), np.abs(factor * row[-1])])


def _binomial(k: int, alpha: float) -> float:
    """C(k + alpha, k), the bound of |wt_k| (DLMF 18.14.8)."""
    return math.exp(math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0) - math.lgamma(alpha + 1.0))


def _series_length(
    cfg: ChannelConfig, tau: float, c1: float, amp: float, ctrl: SeriesControl
) -> int:
    """The first J whose moment-series tail bound at tau is at most rel_tol C_1."""
    a, alpha = cfg.a, 2.0 * cfg.a + 1.0
    decay = math.exp(-2.0 * tau)
    k = cfg.n + 1
    term = 2.0 * _r_n(cfg.n, a) * decay * _gamma(a, k) * _binomial(k, alpha) * amp
    goal = ctrl.rel_tol * c1
    for j in range(ctrl.max_terms + 1):
        ratio = decay * (k + alpha + 1.0) / (k + 2.0)
        rho = max(ratio, decay)
        if rho < 1.0 and term <= goal * (1.0 - rho):
            return j
        term *= ratio
        k += 2
    raise SeriesTruncationError("capacity moment series", tau, ctrl.max_terms)


def _tail_bound(cfg: ChannelConfig, tau: float, terms: int, amp: float) -> float:
    """Bound on the moment series past its first `terms` terms at tau."""
    a, alpha = cfg.a, 2.0 * cfg.a + 1.0
    decay = math.exp(-2.0 * tau)
    k = cfg.n + 1 + 2 * terms
    rho = max(decay * (k + alpha + 1.0) / (k + 2.0), decay)
    term = 2.0 * _r_n(cfg.n, a) * math.exp(-2.0 * tau * (terms + 1)) * _gamma(a, k)
    return term * _binomial(k, alpha) * amp / (1.0 - rho)


def _integrand(cfg: ChannelConfig, snr: float, taus: list[float], terms: int):
    """f(u): one row per tau, the capacity integrand in u = sqrt(lambda).

    Row q is the q = 1 integrand plus, at tau = 0, the closed-form bracket
    or, at 0 < tau < inf, the first `terms` moments times their q-dependent
    coefficients 2 r_N e^{-2 tau} e^{-2 j tau} gamma_{k_j}.
    """
    n, a = cfg.n, cfg.a
    zero = [i for i, t in enumerate(taus) if t == 0.0]
    mid = [i for i, t in enumerate(taus) if 0.0 < t < math.inf]
    coefs = None
    if mid and terms:
        # coefs[j] holds every mid row's coefficient of M_j, stepped as _series steps its own
        decay = np.exp(-2.0 * np.array([taus[i] for i in mid]))
        h = 0.5 * (n + 2) + np.arange(terms - 1.0)
        steps = decay * h[:, None] / (h[:, None] + a + 1.0)
        first = 2.0 * _r_n(n, a) * decay * _gamma(a, n + 1)
        coefs = np.cumprod(np.vstack((first, steps)), axis=0)

    def f(u: np.ndarray) -> np.ndarray:
        x, weight, factor, row, ws = _nodes(u, cfg, snr)
        out = np.empty((len(taus), len(u)))
        out[:] = factor * _s_lue_core(row, row, cfg)
        if zero:
            out[zero] += weight * _node_pow(x, a) * row[-1] * _d_zero_array(x, cfg)
        if coefs is not None:
            acc = np.zeros((len(mid), len(u)))
            for c, w in zip(coefs, itertools.islice(ws, 1, None, 2)):  # orders N+1, N+3, ...
                acc += c[:, None] * w
            out[mid] += factor * row[-1] * acc
        return out

    return f


def _tail_panels(cut: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The next tail segments past lambda = cut as panels in u, and the new cut.

    Each segment is 1.5 times the last in lambda.
    """
    edges = [math.sqrt(cut)]
    for _ in range(_TAIL_BATCH):
        cut *= 1.5
        edges.append(math.sqrt(cut))
    return np.array(edges[:-1]), np.array(edges[1:]), cut


def _capacities(
    cfg: ChannelConfig, qs, power: float, ctrl: SeriesControl, rel_tol: float
) -> list[tuple[float, float]]:
    """(capacity, est_abs_error) for every q in qs at one power, from one quadrature.

    The panels start as 24 equal panels in u on [0, sqrt(cut)], cut = 1.5 x
    the upper MP edge, plus tail segments [cut, 1.5 cut], ... in lambda,
    added five per call until the last adds less than 1e-9 for every q.
    Then refine_panels bisects them until each q's own error meets
    max(1e-12, rel_tol * |C(q)|).
    """
    if not power > 0.0:
        raise ValueError("power must be positive (linear units)")
    snr = power / cfg.nt
    taus = [crossover_tau(q) for q in qs]  # rejects q outside [0, 1]
    cut = 1.5 * mp_support(cfg)[1]
    edges = np.linspace(0.0, math.sqrt(cut), _PANELS + 1)
    tail_lo, tail_hi, cut = _tail_panels(cut)
    lo, hi = np.concatenate((edges[:-1], tail_lo)), np.concatenate((edges[1:], tail_hi))
    mids = [t for t in taus if 0.0 < t < math.inf]
    terms = 0
    tails = [0.0] * len(taus)
    if mids:
        bval, berr = gk15(lambda u: _bound_rows(u, cfg, snr), lo, hi)
        c1, amp = float(bval[0].sum()), float(bval[1].sum() + berr[1].sum())
        terms = _series_length(cfg, min(mids), c1, amp, ctrl)
        tails = [_tail_bound(cfg, t, terms, amp) if 0.0 < t < math.inf else 0.0 for t in taus]
    f = _integrand(cfg, snr, taus, terms)
    val, err = gk15(f, lo, hi)
    segments = _TAIL_BATCH
    while max(abs(v) for v in val[:, -1].tolist()) >= _TAIL_ABS:
        if segments >= _MAX_TAIL_EXTENSIONS:
            raise RuntimeError("capacity tail did not fall below the cutoff bound")
        tail_lo, tail_hi, cut = _tail_panels(cut)
        v, e = gk15(f, tail_lo, tail_hi)
        lo, hi = np.concatenate((lo, tail_lo)), np.concatenate((hi, tail_hi))
        val, err = np.concatenate((val, v), axis=1), np.concatenate((err, e), axis=1)
        segments += _TAIL_BATCH
    total, quad_err = refine_panels(f, lo, hi, val, err, rel_tol, _ABS_TOL)
    return [(float(c), float(e) + t) for c, e, t in zip(total, quad_err, tails)]


def ergodic_capacity(
    cfg: ChannelConfig,
    q: float,
    power: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    rel_tol: float = _REL_TOL,
) -> CapacityResult:
    """Mean capacity: integral of log2(1 + P lambda / nt) against R_1.

    The one-q case of the moment quadrature in the module docstring.  Every
    array integrates in u = sqrt(lambda): the q = 0 density of a square
    array (a = -1/2) has an integrable lambda^{-1/2} edge, and the
    substitution also takes fewer integrand evaluations for the others.
    ``est_abs_error`` is the quadrature error plus the bound on the
    truncated moment series.
    """
    ((cap, err),) = _capacities(cfg, [q], power, ctrl, rel_tol)
    return CapacityResult(cap, err, cfg, q, 10.0 * math.log10(power))


def degradation(
    cfg: ChannelConfig,
    power: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Fractional capacity loss from q = 1 to q = 0: 1 - C(0)/C(1)."""
    (c0, _), (c1, _) = _capacities(cfg, [0.0, 1.0], power, ctrl, _REL_TOL)
    return 1.0 - c0 / c1


def capacity_sweep(
    cfg: ChannelConfig,
    q_values,
    power_db_values,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> list[CapacityResult]:
    """Cartesian capacity table, rows ordered (q outer, power inner).

    One moment quadrature per power serves every q.
    """
    q_values = list(q_values)
    power_db_values = list(power_db_values)
    if not q_values or not power_db_values:
        raise ValueError("q and power grids must be non-empty")
    by_power = [
        _capacities(cfg, q_values, db_to_linear(pdb), ctrl, _REL_TOL) for pdb in power_db_values
    ]
    return [
        CapacityResult(*by_power[j][i], cfg, q, 10.0 * math.log10(db_to_linear(pdb)))
        for i, q in enumerate(q_values)
        for j, pdb in enumerate(power_db_values)
    ]
