"""Ergodic Shannon capacity from q-independent Laguerre moments.

With x = lambda / (2 omega), snr = P / N_t and k_j = N + 1 + 2j, the level
density is the q = 1 density plus a series whose coefficients alone depend
on q (kernel_s on the diagonal), so for 0 < q < 1

    C(q) = C_1 + 2 r_N e^{-2 tau} sum_j e^{-2 j tau} gamma_{k_j} M_j,
    M_j  = int log2(1 + snr lambda) x^{2a+1} wt_{N-1}(x) wt_{k_j}(x) dlambda / (2 omega),

where C_1 is the q = 1 capacity (the same integral over the LUE core) and
the moments M_j do not depend on q.  At q = 0 the series is replaced by the
tau = 0 bracket of kernel_s, x^a wt_{N-1}(x) D(x), with D from the nodes'
half-range integrals (ensemble._diagonal_parts).  So one node set in
u = sqrt(lambda) serves every q and every power of a call.  The integrand
has one row per q.  Its pieces that depend only on the nodes (the weighted
Laguerre row, the LUE core, the q = 0 bracket and the moment sums
sum_{j<J} c_j(tau) wt_{k_j}(x)) come from one weighted Laguerre stream
through all nodes, read two orders at a time (``send(2)``, which forms no
value at the order it skips), its moment orders folded into every q's sum
in chunks of _FOLD_CHUNK as one product each, and each power multiplies in
its own weight log2(1 + snr lambda) u / omega.  No moment table is kept: a
sweep whose powers need series lengths J_p reads the starting nodes' stream
once, to the largest J_p, and keeps the sums at each distinct J_p, so
memory is O(#distinct J x #q x #nodes).

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

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    DEFAULT_CONTROL,
    ChannelConfig,
    NumericalConsistencyError,
    SeriesControl,
    SeriesTruncationError,
    _diagonal_parts,
    _gamma,
    _r_n,
    crossover_tau,
    mp_support,
)
from .quadrature import gk15, gk15_nodes, gk15_sums, refine_panels

__all__ = ["CapacityResult", "ergodic_capacity", "degradation", "capacity_sweep", "db_to_linear"]

_TAIL_ABS = 1e-9
_MAX_TAIL_EXTENSIONS = 40
_PANELS = 24  # equal panels in u on [0, sqrt(cut)]
_TAIL_BATCH = 5  # tail segments added per gk15 call
_ABS_TOL = 1e-12
_REL_TOL = 1e-9
# Moment orders per product in _Nodes.fold.  Chunks of 16, 32, 64 and 128
# timed within 2% of each other on 2x2 and 4x4 sweeps (q = 0.1 to 1).
_FOLD_CHUNK = 32


def db_to_linear(power_db: float) -> float:
    """P = 10^(dB/10); a dB value past the float range raises ValueError."""
    try:
        return 10.0 ** (power_db / 10.0)
    except OverflowError:
        raise ValueError(f"power {power_db} dB is past the float range") from None


@dataclass(frozen=True)
class CapacityResult:
    capacity: float  # bits/s/Hz
    est_abs_error: float
    config: ChannelConfig
    q: float
    power_db: float


class _Nodes:
    """The power-independent pieces of the capacity integrand at the nodes u = sqrt(lambda).

    u, lambda, x^{2a+1} and, for q = 0 rows, x^a; and what the array level
    density builds from the nodes' one weighted Laguerre stream
    (``ensemble._diagonal_parts``): wt_{N-1}(x), the LUE core and, for q = 0
    rows, the bracket factor D(x).  The stream is left at order N; ``fold``
    reads on from it to add the moment sums.  ``rows`` multiplies one
    power's weight in.
    """

    def __init__(self, u: np.ndarray, cfg: ChannelConfig, taus: list[float]):
        a = cfg.a
        self.omega = cfg.omega
        self.zero = [i for i, t in enumerate(taus) if t == 0.0]
        self.mid = [i for i, t in enumerate(taus) if 0.0 < t < math.inf]
        self.n_rows = len(taus)
        self.u, self.lam = u, u * u
        x = self.lam / (2.0 * cfg.omega)
        self.ws, row, self.core, self.bracket = _diagonal_parts(x, cfg, bool(self.zero))
        self.xpow = _node_pow(x, 2.0 * a + 1.0)
        self.last = row[-1]
        if self.zero:
            self.xa = _node_pow(x, a)
        self.sums: dict[int, np.ndarray] = {}  # J -> sum_{j<J} coefs[j] wt_{N+1+2j}, one row per mid

    def fold(self, coefs: np.ndarray, lengths) -> None:
        """Keep the moment sum of the first J terms for every J > 0 in lengths.

        One pass over orders N+1, N+3, ... up to the largest J, two orders
        per read of the stream, in chunks of _FOLD_CHUNK terms: each chunk's
        orders are copied into one buffer and added to the running sums as
        one product with their coefficients.  A J inside a chunk takes the
        running sums plus the product of the chunk's first terms, which is
        how a pass of that length ends, so each J's sums are bit for bit
        those of a pass to J alone.
        """
        keep = set(lengths) - {0}
        if not keep:
            return
        top = max(keep)
        acc = np.zeros((len(self.mid), len(self.u)))
        buf = np.empty((min(_FOLD_CHUNK, top), len(self.u)))
        for start in range(0, top, _FOLD_CHUNK):
            stop = min(start + _FOLD_CHUNK, top)
            for i in range(stop - start):
                buf[i] = self.ws.send(2)
            for j in sorted({k for k in keep if start < k < stop} | {stop}):
                part = acc + coefs[start:j].T @ buf[: j - start]
                if j in keep:
                    self.sums[j] = part
            acc = part

    def _weights(self, snr: float) -> tuple[np.ndarray, np.ndarray]:
        """The weight (the Jacobian du times log2(1 + snr lambda) / (2 omega)) and it times x^{2a+1}."""
        weight = (self.u / self.omega) * (np.log1p(snr * self.lam) / math.log(2.0))
        return weight, weight * self.xpow

    def bounds(self, snr: float) -> np.ndarray:
        """The q = 1 integrand and the integrand of A, the moments' common bound."""
        _, factor = self._weights(snr)
        return np.array([factor * self.core, np.abs(factor * self.last)])

    def rows(self, snr: float, terms: int) -> np.ndarray:
        """The integrand at one power: one row per tau.

        Row q is the q = 1 integrand plus, at tau = 0, the closed-form
        bracket or, at 0 < tau < inf, its first `terms` moments (``fold``).
        """
        weight, factor = self._weights(snr)
        out = np.empty((self.n_rows, len(self.u)))
        out[:] = factor * self.core
        if self.zero:
            out[self.zero] += weight * self.xa * self.last * self.bracket
        if terms:  # > 0 only with mid rows
            out[self.mid] += factor * self.last * self.sums[terms]
        return out


def _node_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x^p over the nodes (all x > 0) as e^{p ln x}, the form specfun.edge_pow takes."""
    return np.exp(p * np.log(x))


def _binomial(k: int, alpha: float) -> float:
    """C(k + alpha, k), the bound of |wt_k| (DLMF 18.14.8)."""
    return math.exp(math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0) - math.lgamma(alpha + 1.0))


def _series_length(
    cfg: ChannelConfig, tau: float, c1: float, amp: float, ctrl: SeriesControl
) -> int:
    """The first J whose moment-series tail bound at tau is at most rel_tol C_1.

    The step ratio decay (k + alpha + 1)/(k + 2) never rises with k, so the
    walk can stop only where rho < 1, and from there on the tail bound
    falls.  A bound still above the goal at max_terms therefore raises
    without the walk.  The closed-form bound (_tail_bound) and the walked
    product round differently, so one within 1e-6 of the goal is left to the
    walk, and J and the raise are those of the walk.
    """
    a, alpha = cfg.a, 2.0 * cfg.a + 1.0
    decay = math.exp(-2.0 * tau)
    goal = ctrl.rel_tol * c1
    k = cfg.n + 1 + 2 * ctrl.max_terms
    if decay * (k + alpha + 1.0) / (k + 2.0) >= 1.0 or _tail_bound(
        cfg, tau, ctrl.max_terms, amp
    ) > goal * (1.0 + 1e-6):
        raise SeriesTruncationError("capacity moment series", tau, ctrl.max_terms)
    k = cfg.n + 1
    term = 2.0 * _r_n(cfg.n, a) * decay * _gamma(a, k) * _binomial(k, alpha) * amp
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


def _coefficients(cfg: ChannelConfig, mids: list[float], terms: int) -> np.ndarray:
    """coefs[j] holds every mid row's coefficient 2 r_N e^{-2 tau} e^{-2 j tau} gamma_{k_j} of M_j.

    Stepped as _series steps its own, by a sequential cumprod, so the first
    J rows do not depend on `terms`.
    """
    n, a = cfg.n, cfg.a
    decay = np.exp(-2.0 * np.array(mids))
    h = 0.5 * (n + 2) + np.arange(terms - 1.0)
    steps = decay * h[:, None] / (h[:, None] + a + 1.0)
    first = 2.0 * _r_n(n, a) * decay * _gamma(a, n + 1)
    return np.cumprod(np.vstack((first, steps)), axis=0)


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
    cfg: ChannelConfig, qs, powers, ctrl: SeriesControl, rel_tol: float
) -> list[list[tuple[float, float]]]:
    """(capacity, est_abs_error) for every q in qs, one list per power.

    The panels start as 24 equal panels in u on [0, sqrt(cut)], cut = 1.5 x
    the upper MP edge, plus tail segments [cut, 1.5 cut], ... in lambda.
    Their nodes' pieces (_Nodes) are built once, each power's bound rows
    fix its series length J_p, and one pass of the nodes' stream keeps the
    moment sums at every J_p.  Each power then adds its own tail segments,
    five per call until the last adds less than 1e-9 for every q, and
    refine_panels bisects them until each q's own error meets
    max(1e-12, rel_tol * |C(q)|); new nodes build their pieces on demand.
    """
    if any(not 0.0 < p < math.inf for p in powers):
        raise ValueError("power must be positive and finite (linear units)")
    taus = [crossover_tau(q) for q in qs]  # rejects q outside [0, 1]
    mids = [t for t in taus if 0.0 < t < math.inf]
    cut = 1.5 * mp_support(cfg)[1]
    edges = np.linspace(0.0, math.sqrt(cut), _PANELS + 1)
    tail_lo, tail_hi, cut = _tail_panels(cut)
    lo, hi = np.concatenate((edges[:-1], tail_lo)), np.concatenate((edges[1:], tail_hi))
    start = _Nodes(gk15_nodes(lo, hi), cfg, taus)
    snrs = [p / cfg.nt for p in powers]
    terms = [0] * len(powers)
    tails = [[0.0] * len(taus) for _ in powers]
    if mids:
        for i, snr in enumerate(snrs):
            bval, berr = gk15_sums(start.bounds(snr), lo, hi)
            c1, amp = float(bval[0].sum()), float(bval[1].sum() + berr[1].sum())
            terms[i] = _series_length(cfg, min(mids), c1, amp, ctrl)
            tails[i] = [_tail_bound(cfg, t, terms[i], amp) if 0.0 < t < math.inf else 0.0 for t in taus]
    coefs = _coefficients(cfg, mids, max(terms)) if mids and max(terms) else None
    start.fold(coefs, terms)
    return [
        _quadrature(cfg, taus, snr, j, coefs, start, lo, hi, cut, rel_tol, tail)
        for snr, j, tail in zip(snrs, terms, tails)
    ]


def _quadrature(
    cfg: ChannelConfig,
    taus: list[float],
    snr: float,
    terms: int,
    coefs: np.ndarray | None,
    start: _Nodes,
    lo: np.ndarray,
    hi: np.ndarray,
    cut: float,
    rel_tol: float,
    tails: list[float],
) -> list[tuple[float, float]]:
    """One power's capacities from the starting panels' pieces: tail segments, then refinement."""

    def f(u: np.ndarray) -> np.ndarray:
        nodes = _Nodes(u, cfg, taus)
        nodes.fold(coefs, [terms])
        return nodes.rows(snr, terms)

    val, err = gk15_sums(start.rows(snr, terms), lo, hi)
    segments = _TAIL_BATCH
    while max(abs(v) for v in val[:, -1].tolist()) >= _TAIL_ABS:
        if segments >= _MAX_TAIL_EXTENSIONS:
            raise NumericalConsistencyError("capacity tail did not fall below the cutoff bound")
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
    (((cap, err),),) = _capacities(cfg, [q], [power], ctrl, rel_tol)
    return CapacityResult(cap, err, cfg, q, 10.0 * math.log10(power))


def degradation(
    cfg: ChannelConfig,
    power: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Fractional capacity loss from q = 1 to q = 0: 1 - C(0)/C(1)."""
    (((c0, _), (c1, _)),) = _capacities(cfg, [0.0, 1.0], [power], ctrl, _REL_TOL)
    return 1.0 - c0 / c1


def capacity_sweep(
    cfg: ChannelConfig,
    q_values,
    power_db_values,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> list[CapacityResult]:
    """Cartesian capacity table, rows ordered (q outer, power inner).

    The starting panels' node pieces are built once and serve every q and
    every power; each power then adds its own tail segments and refinement.
    Each row is bit for bit the same call at its power alone.  Memory is
    O(#distinct J x #q x #nodes), J the powers' series lengths.
    """
    q_values = list(q_values)
    power_db_values = list(power_db_values)
    if not q_values or not power_db_values:
        raise ValueError("q and power grids must be non-empty")
    powers = [db_to_linear(pdb) for pdb in power_db_values]
    by_power = _capacities(cfg, q_values, powers, ctrl, _REL_TOL)
    return [
        CapacityResult(*by_power[j][i], cfg, q, 10.0 * math.log10(p))
        for i, q in enumerate(q_values)
        for j, p in enumerate(powers)
    ]
