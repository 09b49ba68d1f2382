"""Analytic eigenvalue statistics of the Wishart crossover family.

The channel gram matrix of an N_t x N_r Hoyt-faded array has a joint
eigenvalue density that interpolates between the real-gaussian (q = 0) and
complex-gaussian (q = 1) Wishart ensembles as the crossover parameter tau
runs from 0 to infinity.  This module evaluates that joint density (as a
Pfaffian), the skew-orthogonal polynomial system behind it, the two-point
kernels S/A/B, the exact level density (S on the diagonal, whose
tau = 0 and tau = inf forms are the endpoint closed forms), the large-N
asymptotic density and n-point correlation functions.

Numerics: each evaluation reads one row per point, the weighted Laguerre
values wt_k(x) = e^{-x} L_k^{(2a+1)}(2x) for k < N from one rescaled
recurrence (``specfun.weighted_laguerre``), and that point's series read
on from the same stream.  Every series term is a plain float, wt_k times a
running coefficient e^{-k tau} gamma_k, stepped by the Gamma-function
recurrence; nothing is cached.  Every series keeps a plain running sum.
A single sum (_series) stops once three consecutive terms fall below
``rel_tol`` relative to it; ``max_terms`` bounds the order pairs any
point's series reads.

At tau = 0 the kernels and dual functions rest on the half-range
integrals I_k(x) = (1/2) int_0^inf sgn(x - y) y^a wt_k(y) dy, which one
exact recurrence over a point's row gives for every order (_half_range).

Near but not at q = 0 a series needs O(1/tau) terms.  The double sums (G
behind jpd, its one-point companion and the B kernel) are products of one
term table per point set, one stream per point; each point stops on its
own and shorter rows are zero-padded (see _g_table).  Correlation
functions build their S, A and B matrices once per point set (see
_blocks), and each point's B row reads on from its row stream, so an
N-point jpd and a 4x4 R_4 both read N streams.  jpd also takes a stack of
point sets: a block of them reads one array stream
(``specfun.weighted_laguerre_array``) into one table, and the joint module
assembles the density of every set from it, with stacked Pfaffians.
level_density likewise takes an array of lambda: one array stream runs
over all of it, and every point keeps _series's own sum and stop (see the
diagonal module), so each value is the scalar call's.

Scaling convention: analytic kernels live on x = lambda / (2 omega); all
public densities are reported per unit lambda.  For square arrays
(nt == nr, a = -1/2) the q = 0 density and the joint density diverge like
x^{-1/2} at the origin; evaluation there returns +inf, and quadratures
over these functions should substitute lambda = u^2 near 0 (the capacity
module does).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import lgamma as log_gamma

import numpy as np

from . import diagonal, joint, linalg
from .specfun import (
    edge_log_pow,
    edge_pow,
    lower_incomplete_gamma,
    weighted_laguerre,
    weighted_laguerre_array,
)

__all__ = [
    "ChannelConfig",
    "SeriesControl",
    "SeriesTruncationError",
    "NumericalConsistencyError",
    "crossover_tau",
    "g_zero",
    "g_tau",
    "omega_tau",
    "jpd",
    "skew_phi",
    "skew_psi",
    "kernel_s",
    "kernel_a",
    "kernel_b",
    "level_density",
    "density_mp",
    "mp_support",
    "correlation_fn",
]


class SeriesTruncationError(RuntimeError):
    """A series failed to converge within the term budget."""

    def __init__(self, what: str, tau: float, max_terms: int):
        self.tau = tau
        super().__init__(
            f"{what} did not converge within {max_terms} terms at tau={tau:g}; "
            f"for very small tau evaluate the q=0 closed form instead"
        )


class NumericalConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. negative correlation determinant)."""


@dataclass(frozen=True)
class ChannelConfig:
    """Antenna counts and the derived ensemble parameters."""

    nt: int
    nr: int
    omega: float = 1.0

    def __post_init__(self):
        if self.nt < 1 or self.nr < 1:
            raise ValueError("antenna counts must be positive integers")
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")

    @property
    def n(self) -> int:
        return min(self.nt, self.nr)

    @property
    def m_dim(self) -> int:
        return max(self.nt, self.nr)

    @property
    def a(self) -> float:
        return (abs(self.nt - self.nr) - 1) / 2.0

    @property
    def c(self) -> int:
        return self.n % 2


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for all infinite series.

    ``rel_tol`` bounds the last three terms relative to the running sum, not
    the error.  Near q = 0 the unsummed remainder is about 1/(2 tau) times
    the last term kept: at the default, ``jpd`` at q = 0.03 is 2.9e-7 off.
    ``max_terms`` bounds the order pairs each point's series reads: one
    term per pair in a single sum, both terms of a pair in a double sum.

    The capacity moment series is sized up front instead: its length is the
    first whose tail bound is at most ``rel_tol`` times the q = 1 capacity,
    ``max_terms`` also caps that number of moments, and the cap is checked
    before any moment is integrated (see ``capacity``).
    """

    rel_tol: float = 1e-10
    max_terms: int = 20000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def crossover_tau(q: float) -> float:
    """tau from the Hoyt parameter: exp(-tau) = (1 - q^2)/(1 + q^2)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 1.0:
        return math.inf
    return 0.0 - math.log((1.0 - q * q) / (1.0 + q * q)) + 0.0


# ---------------------------------------------------------------------------
# weighted polynomials and Gamma ratios
#
# All series are built from the exponentially weighted polynomials
# wt_k(x) = e^{-x} L_k^{(2a+1)}(2x), which are polynomially bounded in k
# (so plain floats are safe); pure powers of x are reattached analytically.
# A point's row of fixed orders and its series read one stream.  Their
# coefficients e^{-k tau} gamma_k are seeded once by _gamma and then
# stepped two orders at a time by gamma_{k+2} = gamma_k h / (h + a + 1),
# h = (k + 1)/2 (DLMF 5.5.1).


def _gamma(a: float, k: int) -> float:
    """gamma_k = Gamma((k+1)/2) / Gamma((k+1)/2 + a + 1), by polynomial order k."""
    h = 0.5 * (k + 1)
    return math.exp(log_gamma(h) - log_gamma(h + a + 1.0))


def _row(x: float, cfg: ChannelConfig, size: int = 0):
    """wt_0..wt_{m-1}(x), m = max(N, size), and the stream left at order m."""
    ws = weighted_laguerre(2.0 * cfg.a + 1.0, float(x))  # a numpy scalar would slow it twofold
    m = max(cfg.n, size)
    return np.fromiter(itertools.islice(ws, m), float, m), ws


def _series(ws, a: float, tau: float, k0: int, ctrl: SeriesControl, what: str) -> float:
    """S(x; k0) = sum_{j >= 0} e^{-2 j tau} gamma_{k0+2j} wt_{k0+2j}(x).

    ws is a stream of x already at order k0.  The one single-sum series
    behind the dual functions and the S-kernel correction; callers keep
    their prefactors.  It stops once three terms in a row add at most
    ``rel_tol`` of the running sum, and reads at most ``max_terms`` terms,
    one per order pair.
    """
    decay = math.exp(-2.0 * tau)
    coef = _gamma(a, k0)  # e^{-2 j tau} gamma_{k0+2j}
    h = 0.5 * (k0 + 1)
    total = 0.0
    small = 0
    for w in itertools.islice(ws, 0, 2 * ctrl.max_terms, 2):
        term = coef * w
        total += term
        if abs(term) <= ctrl.rel_tol * abs(total):
            small += 1
            if small == 3:
                return total
        else:
            small = 0
        coef *= decay * h / (h + a + 1.0)
        h += 1.0
    raise SeriesTruncationError(what, tau, ctrl.max_terms)


def _r_n(n: int, a: float) -> float:
    # r_N = Gamma((N+1)/2) / Gamma((N+2a+1)/2)
    return math.exp(log_gamma(0.5 * (n + 1)) - log_gamma(0.5 * (n + 2 * a + 1)))


def _log_alpha(a: float, j: int) -> float:
    return 0.5 * (log_gamma(j + 2.0 * a + 2.0) - log_gamma(j + 1.0))


# ---------------------------------------------------------------------------
# the antisymmetric two-point function and its one-point companion


def g_zero(x: float, y: float) -> float:
    """The tau = 0 limit: sgn(x - y)/2."""
    if x > y:
        return 0.5
    if x < y:
        return -0.5
    return 0.0


def _coefficient_pairs(a: float, tau: float, n: int):
    """Yield (e^{-k tau} gamma_k, e^{-(k+1) tau} gamma_{k+1}) for k = n, n+2, ..."""
    decay = math.exp(-2.0 * tau)
    c0 = math.exp(-n * tau) * _gamma(a, n)
    c1 = math.exp(-(n + 1.0) * tau) * _gamma(a, n + 1)
    h0, h1 = 0.5 * (n + 1), 0.5 * (n + 2)
    while True:
        yield c0, c1
        c0 *= decay * h0 / (h0 + a + 1.0)
        c1 *= decay * h1 / (h1 + a + 1.0)
        h0 += 1.0
        h1 += 1.0


def _streams(x, a: float, n: int = 0) -> list:
    """One weighted-Laguerre stream per point of x, each at order n."""
    return [itertools.islice(weighted_laguerre(2.0 * a + 1.0, float(u)), n, None) for u in x]


def _term_table(streams, a: float, tau: float, ctrl: SeriesControl, n: int = 0) -> np.ndarray:
    """Term table of a point set, one weighted-Laguerre stream per point.

    streams holds one stream per point x_j, at order n.  Row j holds
    t_k(x_j) = e^{-k tau} gamma_k wt_k(x_j), k >= n, read from that stream in
    (k, k + 1) pairs whose coefficients are stepped once for all points.  A
    point stops after three pairs in a row add at most ``rel_tol`` of its
    running sums of the two parities, and ``max_terms`` bounds its pairs;
    shorter rows are zero-padded, so a row depends only on its own point.
    """
    rows = []
    spare = _coefficient_pairs(a, tau, n)
    for ws in streams:
        # tee copies share one buffer: each pair is stepped once for all points
        coefs, spare = itertools.tee(spare)
        row = []
        s0 = s1 = 0.0
        small = 0
        # zip draws its arguments in order, so ws is read in (k, k + 1) pairs
        for (c0, c1), w0, w1 in zip(itertools.islice(coefs, ctrl.max_terms), ws, ws):
            t0, t1 = c0 * w0, c1 * w1
            row += (t0, t1)
            s0 += t0
            s1 += t1
            if abs(t0) + abs(t1) <= ctrl.rel_tol * (abs(s0) + abs(s1)):
                small += 1
                if small == 3:
                    break
            else:
                small = 0
        else:
            raise SeriesTruncationError("crossover kernel series", tau, ctrl.max_terms)
        rows.append(row)
    t = np.zeros((len(rows), max(map(len, rows))))
    for j, row in enumerate(rows):
        t[j, : len(row)] = row
    return t


def _term_table_array(x: np.ndarray, a: float, tau: float, ctrl: SeriesControl) -> np.ndarray:
    """The term table of _term_table at n = 0, over many points from one array stream.

    Every point keeps its own running sums and its own count of small pairs,
    and stops by _term_table's rule; its later terms are written as zeros.
    So a row depends only on its own point, and it is _term_table's row
    but where the stream joins in log space (see weighted_laguerre_array).
    The rows are written pair by pair into one buffer, which doubles when
    it is full.
    """
    ws = weighted_laguerre_array(2.0 * a + 1.0, x)
    buf = np.empty((len(x), 64))
    s0, s1 = np.zeros(len(x)), np.zeros(len(x))
    small = np.zeros(len(x), dtype=int)
    live = np.ones(len(x), dtype=bool)
    for k, (c0, c1) in zip(
        range(0, 2 * ctrl.max_terms, 2), _coefficient_pairs(a, tau, 0)
    ):
        if k == buf.shape[1]:
            buf = np.concatenate((buf, np.empty_like(buf)), axis=1)
        t0 = np.where(live, c0 * next(ws), 0.0)
        t1 = np.where(live, c1 * next(ws), 0.0)
        buf[:, k], buf[:, k + 1] = t0, t1
        s0 += t0
        s1 += t1
        quiet = np.abs(t0) + np.abs(t1) <= ctrl.rel_tol * (np.abs(s0) + np.abs(s1))
        small = np.where(quiet, small + 1, 0)
        live &= small < 3
        if not live.any():
            return buf[:, : k + 2]
    raise SeriesTruncationError("crossover kernel series", tau, ctrl.max_terms)


def _g_table(streams, a: float, tau: float, ctrl: SeriesControl, n: int = 0):
    """Weight-stripped G_n over a point set, and each point's two totals.

    streams holds one weighted-Laguerre stream per point x_j, at order n,
    read into the term table t_k(x_j) = e^{-k tau} gamma_k wt_k(x_j), k >= n
    (see _term_table).  With C the running sums of the inner orders n, n+2,
    ... and O the orders n+1, n+3, ..., 2 sum_{i < k} [t_i(x_j) t_k(x_l) -
    t_k(x_j) t_i(x_l)] is 2 (g - g^T), g = C O^T; the caller reattaches
    (x_j x_l)^{a+1}.  Returned with G_n are each point's totals of the
    orders n, n+2, ... and n+1, n+3, ...; at n = 0 the first are the
    one-point companion.

    n = 0 gives G.  For even N, n = N restricts G to the index pairs past
    the first N, which is minus the psi-pair tail of the N-level B kernel.
    For odd N the rows have even order and the inner sums odd order, so
    n = N sums the opposite-order pairs (odd i >= N, even k > i), which G
    does not contain.  It is still minus tail plus parity term, by
    G = 2 [E(x) O(y) - O(x) E(y)] + G', with E and O the even- and
    odd-order sums of t and G' this double sum over all opposite-order
    pairs: the E O products absorb the parity term.
    """
    t = _term_table(streams, a, tau, ctrl, n)
    inner = np.cumsum(t[:, 0::2], axis=1)
    g = inner @ t[:, 1::2].T
    return 2.0 * (g - g.T), inner[:, -1], np.cumsum(t[:, 1::2], axis=1)[:, -1]


def g_tau(
    x: float,
    y: float,
    a: float,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Antisymmetric two-point function of the crossover at tau > 0."""
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    if not tau > 0.0 or math.isinf(tau):
        raise ValueError("g_tau needs finite tau > 0 (tau = 0 has g_zero)")
    if x == 0.0 or y == 0.0:
        return 0.0  # carries w_{a+1} in each argument, a + 1 > 0
    core = _g_table(_streams((x, y), a), a, tau, ctrl)[0][0, 1]
    if core == 0.0:
        return 0.0
    return math.exp((a + 1.0) * math.log(x * y)) * float(core)


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
    inner = _g_table(_streams((x,), a), a, tau, ctrl)[1]
    return math.exp((a + 1.0) * math.log(x)) * float(inner[0])


# ---------------------------------------------------------------------------
# joint eigenvalue density

_STACK_POINTS = 256  # points per block of a stacked jpd: bounds its term table


def jpd(
    lams,
    cfg: ChannelConfig,
    q: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float | np.ndarray:
    """Joint probability density of all N eigenvalues at Hoyt parameter q.

    lams is one point set, shape (N,), and gives a float; or a stack of m
    sets, shape (m, N), and gives an array of m values.  Dispatches to the
    closed endpoint forms at q = 0 and q = 1; otherwise assembles the
    Pfaffian representation (see the joint module).  For square arrays the
    q = 0 form diverges as any eigenvalue reaches 0 (returns +inf there).

    One set reads a scalar weighted-Laguerre stream per point.  A stack is
    taken _STACK_POINTS points at a time, each block from one array stream;
    every point stops its series on its own sums, so a set's value does not
    depend on the stack it came in, and it matches the single call to
    rounding.

    Near q = 1 it loses relative accuracy as N grows while correlation_fn /
    N! stays stable: for 5x5 at the points 0.4 + 1.3 k it is about 7e-4 off
    at q = 0.99 and thousands of times too large (or negative) at q = 0.999.
    At q = 0.95 its error there, 9e-8, is rounding noise: 1-ulp changes of
    the seed Gamma ratios move it anywhere between 9e-8 and 4e-7.
    """
    lams = np.asarray(lams, dtype=float)
    n, a = cfg.n, cfg.a
    if lams.ndim not in (1, 2) or lams.shape[-1] != n:
        raise ValueError(f"need sets of exactly {n} eigenvalues, got shape {lams.shape}")
    if (lams < 0.0).any():
        raise ValueError("eigenvalues must be >= 0")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    tau = crossover_tau(q)
    series = 0.0 < q < 1.0
    if lams.ndim == 1:
        lams = lams.tolist()
        t = None
        if series:
            x = [lam / (2.0 * cfg.omega) for lam in lams]
            t = _term_table(_streams(x, a), a, tau, ctrl)
        return joint.density(lams, cfg, tau, t)
    out = np.empty(len(lams))
    step = max(1, _STACK_POINTS // n)
    for lo in range(0, len(lams), step):
        sets = lams[lo : lo + step]
        t = None
        if series:
            t = _term_table_array((sets / (2.0 * cfg.omega)).ravel(), a, tau, ctrl)
            t = t.reshape(sets.shape + (-1,))
        out[lo : lo + step] = joint.densities(sets, cfg, tau, t)
    return out


# ---------------------------------------------------------------------------
# skew-orthogonal polynomials (phi) and dual functions (psi)
#
# Internal, weight-stripped evaluators return the series multiplied by
# x^{-a} (phi family) or x^{-(a+1)} (psi/omega family); the public
# functions reattach the powers.  All formulas live on x = lambda/(2 omega).


def _phi_core(j: int, w: np.ndarray, cfg: ChannelConfig, tau: float) -> float:
    """phi_j / x^a, read from the row w of x (orders up to j + 1).

    Pair mu rests on the base order k = 2 mu + (N mod 2); odd N's last
    index j = N - 1 has its own form.
    """
    n, a = cfg.n, cfg.a
    if cfg.c and j == n - 1:
        return 2.0 * math.exp((n - 1.0) * tau) * _r_n(n, a) * w[n - 1]
    pref = math.exp((a + 0.5) * math.log(2.0))
    mu, r = divmod(j, 2)
    k = 2 * mu + cfg.c
    la = _log_alpha(a, k)
    if r == 0:
        return pref * math.exp(k * tau - la) * w[k]
    t1 = (k + 1) * math.exp((k + 1.0) * tau - la) * w[k + 1]
    t2 = 0.0
    if k > 0:
        t2 = (k + 2 * a + 1) * math.exp((k - 1.0) * tau - la) * w[k - 1]
    return pref * (t1 - t2)


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
        return pref * math.exp(-k * tau - la) * _row(x, cfg, k + 1)[0][k]
    if not cfg.c:
        s = _psi_series(x, a, tau, ctrl, mu)
        fac = 0.5 * math.exp(log_gamma(mu + a + 1.0) - log_gamma(mu + 1.0) - la)
        return -pref * fac * s
    # finite sum over nu = 0..mu of even-order polynomials
    w = _row(x, cfg, 2 * mu + 1)[0]
    g = np.array([_gamma(a, 2 * nu) for nu in range(mu + 1)])
    es = np.exp(-2.0 * tau * np.arange(mu + 1))
    fac = 0.5 * math.exp(log_gamma(mu + a + 1.5) - log_gamma(mu + 1.5) - la)
    return pref * fac * float(np.dot(es * g, w[0 : 2 * mu + 1 : 2]))


def _half_range(w: np.ndarray, x, cfg: ChannelConfig) -> np.ndarray:
    """I_0..I_m at x from the row w = wt_0..wt_{m-1}(x), orders on its first axis.

    I_k(x) = (1/2) int_0^inf sgn(x - y) y^a wt_k(y) dy = J_k(x) - F_k/2, with
    J_k(x) = int_0^x y^a wt_k(y) dy and F_k = J_k(inf) = Gamma(k/2 + a + 1) /
    Gamma(k/2 + 1) for even k, 0 for odd k.  Integrating d/dy [y^{a+1} wt_mu]
    = (1/2) y^a [(mu + 1) wt_{mu+1} - (mu + 2a + 1) wt_{mu-1}] from 0 to x
    (a + 1 > 0) gives J_{mu+1} = [2 x^{a+1} wt_mu(x) + (mu + 2a + 1) J_{mu-1}]
    / (mu + 1) from J_{-1} = 0 and J_0 = gamma(a + 1, x).  Like _s_lue_core
    it broadcasts over the rest of w: one point, or the nodes of a quadrature.
    """
    a = cfg.a
    x = np.asarray(x, dtype=float)
    edge = 2.0 * x ** (a + 1.0)
    j = [lower_incomplete_gamma(a + 1.0, x)]
    prev = 0.0  # J_{mu-1}
    for mu, wt in enumerate(w):
        j.append((edge * wt + (mu + 2.0 * a + 1.0) * prev) / (mu + 1.0))
        prev = j[mu]
    out = np.array(j)
    half = 0.5 * math.exp(log_gamma(a + 1.0))  # F_k / 2, stepped over even k
    for k in range(0, len(out), 2):
        out[k] -= half
        half *= (0.5 * k + a + 1.0) / (0.5 * k + 1.0)
    return out


def _psi_zero(j: int, w: np.ndarray, i: np.ndarray, p, cfg: ChannelConfig):
    """psi_j at tau = 0 (full weights) from the row w, half-range table i and p = x^{a+1}."""
    n, a = cfg.n, cfg.a
    if cfg.c and j == n - 1:
        return 2.0 * _r_n(n, a) * i[n - 1]
    mu, r = divmod(j, 2)
    k = 2 * mu + cfg.c
    la = _log_alpha(a, k)
    if r == 0:
        return math.exp((a + 0.5) * math.log(2.0)) * math.exp(-la) * i[k]
    return math.exp((a + 1.5) * math.log(2.0)) * math.exp(-la) * w[k] * p


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
    return edge_pow(x, cfg.a) * _phi_core(j, _row(x, cfg, j + 2)[0], cfg, tau)


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
        w = _row(x, cfg, j + 1)[0]
        return float(_psi_zero(j, w, _half_range(w, x, cfg), edge_pow(x, cfg.a + 1.0), cfg))
    if x == 0.0:
        return 0.0  # psi carries the w_{a+1} weight
    return math.exp((cfg.a + 1.0) * math.log(x)) * _psi_core(j, x, cfg, tau, ctrl)


# ---------------------------------------------------------------------------
# two-point kernels


def _s_lue_core(wx: np.ndarray, wy: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Finite Christoffel-Darboux-type sum, stripped of x^a y^{a+1}, from the rows of x and y.

    The rows hold the orders on their first axis, and the sum broadcasts
    over the rest: a pair of points, the nodes of a quadrature, or every
    pair of a point set.  The transposes put the orders last for np.dot,
    which sums 1-D rows in one dot product, and the points back in order.
    """
    n, a = cfg.n, cfg.a
    inv = np.array([math.exp(-2.0 * _log_alpha(a, mu)) for mu in range(n)])  # 1/alpha_mu^2
    pref = math.exp((2.0 * a + 2.0) * math.log(2.0))
    return pref * np.dot((wx * wy).T, inv).T


def _s_corr_lead(wx: np.ndarray, cfg: ChannelConfig, tau: float) -> float:
    """The x factor 2 r_N wt_{N-1}(x) e^{-2 tau} of the S-kernel correction."""
    n, a = cfg.n, cfg.a
    return 2.0 * _r_n(n, a) * wx[n - 1] * math.exp(-2.0 * tau)


def _d_zero(i_n, cfg: ChannelConfig):
    """D = c r_N - 2^{2a+1} Gamma(N+1)/Gamma(N+2a+1) I_N, from the half-range I_N.

    The y factor beside wt_{N-1}(x) in the tau = 0 bracket of S (see kernel_s).
    """
    n, a = cfg.n, cfg.a
    lk = (2.0 * a + 1.0) * math.log(2.0) + log_gamma(n + 1.0) - log_gamma(n + 2.0 * a + 1.0)
    return cfg.c * _r_n(n, a) - math.exp(lk) * i_n


def kernel_s(
    x: float,
    y: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Two-point kernel S_N(x, y) on the x = lambda/(2 omega) scale."""
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    a = cfg.a
    wx, xs = _row(x, cfg)
    wy, ys = (wx, xs) if y == x else _row(y, cfg)
    core = float(_s_lue_core(wx, wy, cfg))
    if tau == 0.0:
        # S = x^a [y^{a+1} S_lue-core + wt_{N-1}(x) D(y)]: the whole bracket
        # shares the bare x^a edge factor
        d = float(_d_zero(_half_range(wy, y, cfg)[cfg.n], cfg))
        if x == 0.0 and y == 0.0:
            # diagonal origin: the LUE piece recombines to x^{2a+1}
            lue = edge_pow(0.0, 2.0 * a + 1.0) * core
            return lue + edge_pow(0.0, a) * wx[cfg.n - 1] * d
        bracket = edge_pow(y, a + 1.0) * core + wx[cfg.n - 1] * d
        return edge_pow(x, a) * bracket
    if not math.isinf(tau):
        # the y factor reads on from y's row stream, past order N
        ys = itertools.islice(ys, 1, None)
        core += _s_corr_lead(wx, cfg, tau) * _series(
            ys, a, tau, cfg.n + 1, ctrl, "density correction series"
        )
    if x == y:
        # weights combine to x^{2a+1}: finite at 0 exactly for square arrays
        return edge_pow(x, 2.0 * a + 1.0) * core
    return edge_pow(x, a) * edge_pow(y, a + 1.0) * core


def kernel_a(
    x: float,
    y: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Antisymmetric kernel A_N(x, y): x^a y^a times a finite sum over stripped phi pairs.

    So at x = 0 of a square array A is a signed infinity.
    """
    if math.isinf(tau):
        raise ValueError("A_N diverges as tau -> inf (q = 1 is determinantal)")
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    k2 = cfg.n - cfg.c
    if k2 == 0 or x == y:
        return 0.0  # N = 1 has no phi pair, and A vanishes on the diagonal
    wx, wy = _row(x, cfg, k2 + 1)[0], _row(y, cfg, k2 + 1)[0]
    px, py = ([_phi_core(j, w, cfg, tau) for j in range(k2)] for w in (wx, wy))
    total = 0.0
    for mu in range(k2 // 2):
        total += px[2 * mu + 1] * py[2 * mu]
        total -= px[2 * mu] * py[2 * mu + 1]
    return edge_pow(x, cfg.a) * edge_pow(y, cfg.a) * total


def kernel_b(
    x: float,
    y: float,
    cfg: ChannelConfig,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Kernel B_N(x, y): the infinite psi-pair tail plus parity term.

    For tau > 0, tail and parity term together are minus the G double
    series restricted to the index pairs past the first N (for odd N the
    opposite-parity pairs, see _g_table), formed from the term table of
    [x, y] as jpd forms G.  That stays accurate at large tau, where the
    identity B = -G + (finite psi-pair sum) + parity term would cancel
    e^{2N tau}-fold.  At tau = 0 the identity is used, with the
    closed-form duals, where every piece is exact (see _blocks).
    """
    if math.isinf(tau):
        raise ValueError("B_N vanishes as tau -> inf (q = 1 is determinantal)")
    if x < 0.0 or y < 0.0:
        raise ValueError("arguments must be >= 0")
    n, a = cfg.n, cfg.a
    if tau > 0.0:
        if x == 0.0 or y == 0.0:
            return 0.0  # carries w_{a+1} in each argument
        pw = math.exp((a + 1.0) * (math.log(x) + math.log(y)))
        return -pw * float(_g_table(_streams((x, y), a, n), a, tau, ctrl, n)[0][0, 1])
    return float(_blocks(np.array([x, y]), cfg, 0.0, ctrl)[2][0, 1])


# ---------------------------------------------------------------------------
# level density


def level_density(
    lam,
    cfg: ChannelConfig,
    q: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float | np.ndarray:
    """Exact level density R_1(lambda) at Hoyt parameter q in [0, 1].

    R_1 = S_N(x, x) / (2 omega) with x = lambda / (2 omega), so q = 0 and
    q = 1 are kernel_s's closed forms.  At q = 0 the density diverges like
    lambda^{-1/2} at the origin for square arrays.  lam is a float and
    gives a float, from kernel_s; or a 1-D array and gives an array, from
    one array stream (see the diagonal module), bit for bit the same values.
    """
    if np.ndim(lam) == 0:
        if lam < 0.0:
            raise ValueError("lambda must be >= 0")
        x = lam / (2.0 * cfg.omega)
        return float(kernel_s(x, x, cfg, crossover_tau(q), ctrl)) / (2.0 * cfg.omega)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or (lam < 0.0).any():
        raise ValueError(f"lambda must be >= 0, in a float or a 1-D array (got shape {lam.shape})")
    x = lam / (2.0 * cfg.omega)
    return diagonal.kernel_s_diagonal(x, cfg, crossover_tau(q), ctrl) / (2.0 * cfg.omega)


def mp_support(cfg: ChannelConfig) -> tuple[float, float]:
    """Support edges of the large-N asymptotic density."""
    ratio = math.sqrt(cfg.n / cfg.m_dim)
    lo = cfg.m_dim * cfg.omega * (1.0 - ratio) ** 2
    hi = cfg.m_dim * cfg.omega * (1.0 + ratio) ** 2
    return lo, hi


def density_mp(lam, cfg: ChannelConfig) -> float | np.ndarray:
    """Marchenko-Pastur-type asymptotic level density (large N).

    lam is a float and gives a float, or an array and gives an array of its
    shape; points outside the open support (lo, hi) give 0.0.
    """
    lo, hi = mp_support(cfg)
    y = np.asarray(lam, dtype=float)
    rho = np.zeros(y.shape)
    inside = ~((y <= lo) | (y >= hi))
    y = y[inside]
    rho[inside] = np.sqrt((hi - y) * (y - lo)) / (2.0 * math.pi * cfg.omega * y)
    return float(rho) if rho.ndim == 0 else rho


# ---------------------------------------------------------------------------
# n-level correlation functions


def _pair_matrix(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Antisymmetric sum_m [p_m(x_j) r_m(x_k) - r_m(x_j) p_m(x_k)].

    p and r hold one row of function values per point.  The sum is
    accumulated term by term, as the scalar kernels do, and the entries
    below the diagonal are the negatives of those above it.
    """
    tot = np.zeros((len(p), len(p)))
    for pm, rm in zip(p.T, r.T):
        tot = tot + np.outer(pm, rm) - np.outer(rm, pm)
    upper = np.triu(tot, 1)
    return upper - upper.T


def _blocks(x, cfg: ChannelConfig, tau: float, ctrl: SeriesControl):
    """The weight-stripped S, A and B over every pair of points, 0 <= tau < inf.

    Each point's row feeds S and A.  At tau = 0 its half-range table gives
    D and the duals: row j of S and of A drops x_j^a, column k of A drops
    x_k^a, and B = -sgn(x_j - x_k)/2 + psi-pair sum (+ parity term for odd
    N) carries no weight.  For tau > 0 the row's stream, left at order N,
    runs on into the B rows: B is minus the restricted G of the point set.
    The S correction's y factor is e^{(N+1) tau} times a B row's total of
    the orders N+1, N+3, ...  A and B are balanced so the growing phi-block
    and the decaying psi-block stay O(1).
    """
    n = cfg.n
    k2 = n - cfg.c
    bal = math.exp(-(n - 1.0) * tau)
    rows, streams = zip(*(_row(u, cfg) for u in x))
    w = np.array(rows).T
    s = _s_lue_core(w[:, :, None], w[:, None, :], cfg)
    phi = np.array([[_phi_core(j, wj, cfg, tau) for j in range(k2)] for wj in rows])
    a = _pair_matrix(phi[:, 1::2], phi[:, 0::2]) * bal
    if tau == 0.0:
        i = _half_range(w, x, cfg)
        p = x ** (cfg.a + 1.0)
        psi = np.array([_psi_zero(j, w, i, p, cfg) for j in range(n)]).T
        b = _pair_matrix(psi[:, 0:k2:2], psi[:, 1:k2:2]) - 0.5 * np.sign(np.subtract.outer(x, x))
        if cfg.c:
            b += 0.5 * np.subtract.outer(psi[:, n - 1], psi[:, n - 1])
        return s * p + np.outer(w[n - 1], _d_zero(i[n], cfg)), a, b
    lead = [_s_corr_lead(wj, cfg, tau) for wj in rows]
    g, _, odd = _g_table(streams, cfg.a, tau, ctrl, n)
    s += np.outer(lead, math.exp((n + 1.0) * tau) * odd)
    return s, a, -g / bal


def _doubled_kernel(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2n x 2n matrix whose 2 x 2 block (j, k) is [[s_jk, a_jk], [b_jk, s_kj]]."""
    n_pts = len(s)
    mat = np.empty((2 * n_pts, 2 * n_pts))
    mat[0::2, 0::2] = s
    mat[0::2, 1::2] = a
    mat[1::2, 0::2] = b
    mat[1::2, 1::2] = s.T
    return mat


def correlation_fn(
    points,
    cfg: ChannelConfig,
    q: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """n-level correlation function R_n(lambda_1..lambda_n) at parameter q.

    Computed as the nonnegative square root of the ordinary determinant of
    the doubled kernel matrix (the plain kernel determinant at q = 1); a
    determinant negative beyond tolerance, or NaN, raises
    NumericalConsistencyError rather than being clamped.  The S, A and B
    matrices are built once per point set (_blocks) and interleaved into
    the doubled matrix; for q > 0 B is summed by the term table of jpd's G
    and the S correction comes from the B rows, so R_n costs about as much
    as jpd.

    R_n loses relative accuracy as points close in.  The determinant
    vanishes with the squared gaps while its O(1) entries do not, so it is
    formed by cancellation; neither the square root nor the series
    tolerance is the cause, and the q = 1 branch, which takes no root,
    degrades the same way.  At n = N, N! * jpd(points) is the accurate
    route: jpd factors the Vandermonde product out exactly.
    """
    pts = np.asarray(points, dtype=float)
    n_pts = len(pts)
    if not 1 <= n_pts <= cfg.n:
        raise ValueError(f"number of points must lie in 1..{cfg.n}")
    if np.any(pts < 0.0):
        raise ValueError("points must be >= 0")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    omega, a = cfg.omega, cfg.a
    x = pts / (2.0 * omega)

    # the stripped kernels leave the weights x^a (q = 0) or x^{2a+1}
    # (q > 0) to reattach
    log_scale = 0.0
    power = a if q == 0.0 else 2.0 * a + 1.0
    for xi in x:
        log_scale += edge_log_pow(xi, power)
    if log_scale == -math.inf:
        return 0.0
    if q == 1.0:
        w = np.array([_row(u, cfg)[0] for u in x]).T
        mat = _s_lue_core(w[:, :, None], w[:, None, :], cfg)
    else:
        mat = _doubled_kernel(*_blocks(x, cfg, crossover_tau(q), ctrl))
    sign, logdet = linalg.determinant_signed_log(mat)
    if math.isnan(logdet):
        raise NumericalConsistencyError("correlation determinant is undefined (NaN kernel entry)")
    log_scale -= n_pts * math.log(2.0 * omega)
    return _signed_sqrt_det(int(sign), logdet, mat, log_scale, square=q < 1.0)


def _signed_sqrt_det(
    sign: int, logdet: float, mat: np.ndarray, log_scale: float, square: bool
) -> float:
    """Finish a correlation evaluation from (sign, log|det|) data."""
    if sign == 0:
        return 0.0
    if square:
        if sign < 0:
            # negative determinant: tolerate only round-off magnitudes,
            # judged against the Hadamard bound of the matrix
            norms = np.sqrt(np.sum(mat * mat, axis=1))
            log_had = float(np.sum(np.log(np.maximum(norms, 1e-300))))
            if logdet > log_had + math.log(1e-9):
                raise NumericalConsistencyError(
                    "correlation determinant is negative beyond tolerance"
                )
            return 0.0
        return math.exp(0.5 * logdet + log_scale)
    if sign < 0:
        raise NumericalConsistencyError("correlation determinant is negative")
    return math.exp(logdet + log_scale)
