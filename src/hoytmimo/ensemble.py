"""Analytic eigenvalue statistics of the Wishart crossover family.

The channel gram matrix of an N_t x N_r Hoyt-faded array has a joint
eigenvalue density that interpolates between the real-gaussian (q = 0) and
complex-gaussian (q = 1) Wishart ensembles as the crossover parameter tau
runs from 0 to infinity.  This module evaluates that joint density (as a
Pfaffian of the antisymmetric two-point function G), the exact level
density (the kernel S on the diagonal, whose tau = 0 and tau = inf forms
are the endpoint closed forms), the large-N asymptotic density and the
n-point correlation functions (from the kernels S/A/B over a point set).

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
own and shorter rows are zero-padded.  Every G is summed in products of
_CHUNK order pairs, so a value built on it is the same alone or in any
stack (see _g_table).  Correlation functions build the S, A and B matrices
of a stack of point sets at once (see _blocks); each point's B row reads
on from its own row stream, and one batched call takes every determinant.
jpd takes a stack of point sets in blocks, each from one array stream
(``specfun.weighted_laguerre_array``) folded into G as it runs (see
_g_stream), and level_density an array of lambda from one array stream
with the scalar call's sums and stops (see _kernel_s_diagonal).

Scaling convention: analytic kernels live on x = lambda / (2 omega); all
public densities are reported per unit lambda.  For square arrays
(nt == nr, a = -1/2) the q = 0 density and the joint density diverge like
x^{-1/2} at the origin; evaluation there returns +inf, and quadratures
over these functions should substitute lambda = u^2 near 0 (the capacity
module does).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from math import lgamma as log_gamma

import numpy as np

from . import linalg
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
    "g_tau",
    "jpd",
    "kernel_s",
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
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")

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


def _check_finite(x, what: str) -> None:
    """Raise ValueError unless every entry of x, an array or a list of floats, is finite and >= 0.

    A NaN or infinite argument would read every series to the end of its
    budget and then raise SeriesTruncationError, or give NaN or 0.  A short
    list is checked in Python floats, without numpy's per-call cost.
    """
    if isinstance(x, list):
        ok = all(0.0 <= u < math.inf for u in x)  # NaN fails both
    else:
        ok = ((x >= 0.0) & (x < math.inf)).all()
    if not ok:
        raise ValueError(f"{what} must be finite and >= 0")


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


def _row(x: float, cfg: ChannelConfig):
    """wt_0..wt_{N-1}(x) and the stream left at order N."""
    ws = weighted_laguerre(2.0 * cfg.a + 1.0, float(x))  # a numpy scalar would slow it twofold
    return np.fromiter(itertools.islice(ws, cfg.n), float, cfg.n), ws


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


# Order pairs per block of _series_array, and its terms over many points.
# A block reads up to a block past the last stop and costs about a dozen
# numpy calls.  Over x in [0.01, 20] (2-core VM, fastest of 15 interleaved
# calls) blocks of 4, 8, 16 and 32 pairs took 1.33, 1.21, 1.09 and 1.26 ms
# on 401 points at q = 0.3 (2x2), and 3.47, 2.88, 2.76 and 3.88 ms on 101
# points at q = 0.15.  The cap on terms keeps the buffers of a long grid
# out of the peak RSS: 32 pairs on 401 points raised perfbench
# capacity-table's by 0.2-0.4 MiB.
_SERIES_CHUNK = 16
_SERIES_CELLS = 4096


def _series_array(ws, a: float, tau: float, k0: int, m: int, ctrl: SeriesControl) -> np.ndarray:
    """_series at m points at once; ws is their array stream, last read at order k0 - 2.

    Each ``ws.send(2)`` reads the next pair's value and forms none at the
    order it skips (see ``specfun.weighted_laguerre_array``).  Every point
    sums its own terms and stops on its own three small terms, so its total
    does not depend on the other points.  The terms go into blocks of pairs
    (see _SERIES_CHUNK; the budget's last block may be shorter).  One
    cumsum, seeded with the totals carried in, gives a block's running
    totals; it adds in order, so each is _series' float for float.  Each
    live point's first run of three small terms, the last two pairs carried
    in, is then found over the block at once, and a point that meets
    another run after it stopped keeps its first total.  So the stream may
    run up to a block past the last stop; a point still running after
    ``max_terms`` terms raises.
    """
    decay = math.exp(-2.0 * tau)
    coef = _gamma(a, k0)
    h = 0.5 * (k0 + 1)
    rows = max(1, min(_SERIES_CHUNK, _SERIES_CELLS // m))
    s = np.zeros((rows + 1, m))  # the totals carried in, then the block's terms
    mag, bound = np.empty((2, rows, m))  # |term| and rel_tol |total|
    small = np.zeros((rows + 2, m), dtype=bool)  # the last two pairs' flags, then the block's
    hit = np.empty((rows, m), dtype=bool)
    coefs = np.empty(rows)
    live = np.ones(m, dtype=bool)
    out = np.empty(m)
    for start in range(0, ctrl.max_terms, rows):
        n = min(rows, ctrl.max_terms - start)
        for i in range(n):
            s[i + 1] = ws.send(2)
            coefs[i] = coef
            coef *= decay * h / (h + a + 1.0)
            h += 1.0
        block, t, hits = s[: n + 1], s[1 : n + 1], hit[:n]
        t *= coefs[:n, None]
        np.abs(t, out=mag[:n])
        np.cumsum(block, axis=0, out=block)
        np.abs(t, out=bound[:n])
        bound[:n] *= ctrl.rel_tol
        np.less_equal(mag[:n], bound[:n], out=small[2 : n + 2])
        np.logical_and(small[:n], small[1 : n + 1], out=hits)
        hits &= small[2 : n + 2]
        if hits.any():
            stop = np.flatnonzero(hits.any(axis=0) & live)
            out[stop] = t[hits[:, stop].argmax(axis=0), stop]
            live[stop] = False
            if not live.any():
                return out
        s[0] = s[n]
        small[:2] = small[n : n + 2]
    raise SeriesTruncationError("density correction series", tau, ctrl.max_terms)


def _r_n(n: int, a: float) -> float:
    # r_N = Gamma((N+1)/2) / Gamma((N+2a+1)/2)
    return math.exp(log_gamma(0.5 * (n + 1)) - log_gamma(0.5 * (n + 2 * a + 1)))


def _log_alpha(a: float, j: int) -> float:
    return 0.5 * (log_gamma(j + 2.0 * a + 2.0) - log_gamma(j + 1.0))


# ---------------------------------------------------------------------------
# the antisymmetric two-point function and the term tables behind it


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


def _streams(x, a: float) -> list:
    """One weighted-Laguerre stream per point of x."""
    return [weighted_laguerre(2.0 * a + 1.0, float(u)) for u in x]


def _term_rows(streams, a: float, tau: float, ctrl: SeriesControl, n: int = 0) -> list:
    """Term rows (1-D arrays) of a point set, one weighted-Laguerre stream per point.

    streams holds one stream per point x_j, at order n.  Row j holds
    t_k(x_j) = e^{-k tau} gamma_k wt_k(x_j), k >= n, read from that stream in
    (k, k + 1) pairs whose coefficients are stepped once for all points.  A
    point stops after three pairs in a row add at most ``rel_tol`` of its
    running sums of the two parities, and ``max_terms`` bounds its pairs,
    so a row depends only on its own point.
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
        rows.append(np.array(row))  # frees the row's float objects before the next point
    return rows


def _term_table(rows: list) -> np.ndarray:
    """The term table t[point, order] of _term_rows: the rows zero-padded to whole chunks (see _g_table)."""
    t = np.zeros((len(rows), -(-max(map(len, rows)) // (2 * _CHUNK)) * 2 * _CHUNK))
    for j, row in enumerate(rows):
        t[j, : len(row)] = row
    return t


# Order pairs per product of G: a product rounds by its inner length, so
# every G is summed in products of this one length.  At 16, 32 and 64
# pairs (2-core VM, medians of 7 interleaved rounds) validate's 2304-set
# 2x2 stack at q = 0.5 took 9.3, 9.0 and 9.7 ms, 8000 3x4 sets 45.5, 44.6
# and 48.0 ms, and one 4x4 set at q = 0.35 210, 193 and 201 us.
_CHUNK = 32


def _fold(g: np.ndarray, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """g += C O^T over whole chunks of the terms even/odd[..., pair]; return C's last column.

    even, overwritten by its running sums C (one cumsum), and odd are
    contiguous.  The chunks' products are added in order, so a table
    folded chunk by chunk, the sums so far added into each chunk's first
    even term, gives g bit for bit as one fold of the whole table.
    """
    np.cumsum(even, axis=-1, out=even)
    odd = np.swapaxes(odd, -1, -2)
    for k in range(0, even.shape[-1], _CHUNK):
        g += even[..., k : k + _CHUNK] @ odd[..., k : k + _CHUNK, :]
    return even[..., -1]


def _g_table(t: np.ndarray):
    """Weight-stripped G_n from a term table t[set, point, order], and each point's even total.

    t holds t_k(x_j) = e^{-k tau} gamma_k wt_k(x_j), k >= n (see
    _term_table), zero past where each point stopped.  With C the running
    sums of the inner orders n, n+2, ... and O the orders n+1, n+3, ...,
    2 sum_{i < k} [t_i(x_j) t_k(x_l) - t_k(x_j) t_i(x_l)] is 2 (g - g^T),
    g = C O^T; the caller reattaches (x_j x_l)^{a+1}.  Returned with G_n is
    each point's total of the orders n, n+2, ...; at n = 0 it is the
    one-point companion.

    n = 0 gives G.  For even N, n = N restricts G to the index pairs past
    the first N, which is minus the psi-pair tail of the N-level B kernel.
    For odd N the rows have even order and the inner sums odd order, so
    n = N sums the opposite-order pairs (odd i >= N, even k > i), which G
    does not contain.  It is still minus tail plus parity term, by
    G = 2 [E(x) O(y) - O(x) E(y)] + G', with E and O the even- and
    odd-order sums of t and G' this double sum over all opposite-order
    pairs: the E O products absorb the parity term.

    The table is zero-padded to whole chunks of _CHUNK pairs and folded
    (_fold).  A trailing zero chunk adds exact zeros, so a set's G is the
    same bit for bit alone or in any stack, and the same as _g_stream's.
    """
    pad = -t.shape[-1] % (2 * _CHUNK)
    if pad:
        t = np.concatenate((t, np.zeros(t.shape[:-1] + (pad,))), axis=-1)
    g = np.zeros(t.shape[:-1] + t.shape[-2:-1])
    even = _fold(g, t[..., 0::2].copy(), t[..., 1::2].copy())
    return 2.0 * (g - np.swapaxes(g, -1, -2)), even


def _g_stream(x: np.ndarray, a: float, tau: float, ctrl: SeriesControl):
    """_g_table of the term tables at n = 0 of the point sets x[set, point], keeping no table.

    One array stream runs over all the points, each stopping by
    _term_rows' rule, so a row is _term_rows' row but where the stream
    joins in log space (see weighted_laguerre_array).  The terms go pair
    by pair into one buffer of _CHUNK pairs, even and odd orders apart,
    and each full chunk, and the zero-filled last one, is folded into G.
    """
    pts = x.ravel()
    ws = weighted_laguerre_array(2.0 * a + 1.0, pts)
    buf = np.zeros((2, len(pts), _CHUNK))
    g = np.zeros(x.shape + x.shape[-1:])
    even = np.zeros(x.shape)
    s0 = s1 = np.zeros(len(pts))
    small = np.zeros(len(pts), dtype=int)
    live = np.ones(len(pts), dtype=bool)
    for k, (c0, c1) in zip(range(ctrl.max_terms), _coefficient_pairs(a, tau, 0)):
        j = k % _CHUNK
        t0 = buf[0, :, j] = np.where(live, c0 * next(ws), 0.0)
        t1 = buf[1, :, j] = np.where(live, c1 * next(ws), 0.0)
        s0, s1 = s0 + t0, s1 + t1
        quiet = np.abs(t0) + np.abs(t1) <= ctrl.rel_tol * (np.abs(s0) + np.abs(s1))
        small = np.where(quiet, small + 1, 0)
        live &= small < 3
        done = not live.any()
        if done or j + 1 == _CHUNK:
            buf[:, :, j + 1 :] = 0.0  # the last chunk's unread pairs
            buf[0, :, 0] += even.ravel()  # the running even sums carry over
            even = _fold(g, *buf.reshape((2,) + x.shape + (-1,))).copy()
            if done:
                return 2.0 * (g - np.swapaxes(g, -1, -2)), even
    raise SeriesTruncationError("crossover kernel series", tau, ctrl.max_terms)


def g_tau(
    x: float,
    y: float,
    a: float,
    tau: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Antisymmetric two-point function of the crossover at tau > 0."""
    _check_finite([x, y], "arguments")
    if not tau > 0.0 or math.isinf(tau):
        raise ValueError("g_tau needs finite tau > 0 (at tau = 0 G is sgn(x - y)/2)")
    if x == 0.0 or y == 0.0:
        return 0.0  # carries w_{a+1} in each argument, a + 1 > 0
    core = _g_table(_term_table(_term_rows(_streams((x, y), a), a, tau, ctrl))[None])[0][0, 0, 1]
    if core == 0.0:
        return 0.0
    return math.exp((a + 1.0) * math.log(x * y)) * float(core)


# ---------------------------------------------------------------------------
# joint eigenvalue density
#
# At q = 0 and q = 1 the density is C |Delta|^power prod_j x_j^p e^{-x_j},
# x = lambda / s (_endpoint_form).  At 0 < q < 1 it is a constant times
# Delta(lambda), the edge weights x^{2a+1} e^{-x} and the Pfaffian of G
# (_g_pfaffian), every factor attached in log space.  _density sums one set
# in floats and _densities a stack in numpy, the same terms in the same
# order: they differ only where numpy's log and exp round differently from
# the math module's, and on one set the numpy sums cost about 10 us more.


# ln C at tau = 0 (_log_c0) and, before omega's factor, at tau = inf
# (_log_c1): cached by (N, a), which unlike omega take few values.
@functools.lru_cache(maxsize=64)
def _log_c0(n: int, a: float) -> float:
    out = 0.5 * n * math.log(math.pi) - n * math.log(2.0)
    for k in range(1, n + 1):
        out -= log_gamma(0.5 * k + 1.0) + log_gamma(0.5 * k + a + 0.5)
    return out


@functools.lru_cache(maxsize=64)
def _log_c1(n: int, a: float) -> float:
    out = 0.0
    for k in range(1, n + 1):
        out -= log_gamma(k + 1.0) + log_gamma(k + 2.0 * a + 1.0)
    return out


def _endpoint_form(cfg, tau: float):
    """ln C, the power of |Delta|, the scale s and the edge power p at tau = 0 or inf."""
    n, a, omega = cfg.n, cfg.a, cfg.omega
    if tau == 0.0:
        return _log_c0(n, a) - 0.5 * n * (n + 1) * math.log(2.0 * omega), 1.0, 2.0 * omega, a
    return _log_c1(n, a) - n * n * math.log(omega), 2.0, omega, 2.0 * a + 1.0


def _log_const(cfg, tau: float) -> float:
    """ln of the constant of the Pfaffian form at 0 < tau < inf."""
    n = cfg.n
    return (
        (n + 1) // 2 * math.log(2.0)
        + 0.5 * n * (n - 1) * tau
        - 0.5 * n * (n + 1) * math.log(2.0 * cfg.omega)
        + _log_c0(n, cfg.a)
    )


def _log_vandermonde(lams: list) -> tuple[int, float]:
    sign, logabs = 1, 0.0
    for lj, lk in itertools.combinations(lams, 2):
        d = lj - lk
        if d == 0.0:
            return 0, -math.inf
        if d < 0.0:
            sign = -sign
        logabs += math.log(abs(d))
    return sign, logabs


def _g_pfaffian(g: np.ndarray, even: np.ndarray, n: int):
    """Sign and ln|Pf| of G, from G and the even totals of one set, or of every set of a stack.

    Odd N borders G with the one-point companion column, the even totals.
    One set's G (n, n) gives an (int, float) pair from the float path of
    linalg.pfaffian_signed_log, bit for bit the value it gets in a stack;
    a stack (sets, n, n) gives two arrays.
    """
    if n % 2:
        f = np.zeros(g.shape[:-2] + (n + 1, n + 1))
        f[..., :n, :n] = g
        f[..., :n, n] = even
        f[..., n, :n] = -even
        g = f
    return linalg.pfaffian_signed_log(g)


def _density(lams: list, cfg, tau: float, ge) -> float:
    """The joint density at one point set lams (floats); ge is its G and even totals at 0 < tau < inf."""
    dl_sign, logdelta = _log_vandermonde(lams)
    if logdelta == -math.inf:
        return 0.0
    if ge is None:
        logp, power, scale, p = _endpoint_form(cfg, tau)
        logp += power * logdelta
        sign = 1.0
    else:
        pf_sign, pf_log = _g_pfaffian(*ge, cfg.n)
        if pf_sign == 0:
            return 0.0
        logp = _log_const(cfg, tau) + logdelta + pf_log
        sign = float(pf_sign * dl_sign)
        # the weight and Pfaffian factors combine to x^{2a+1}
        scale, p = 2.0 * cfg.omega, 2.0 * cfg.a + 1.0
    for x in (lam / scale for lam in lams):
        logp += edge_log_pow(x, p) - x
    if logp == -math.inf:
        return 0.0
    try:
        return sign * math.exp(logp)
    except OverflowError:  # past the float range: inf, as _densities gives
        return sign * math.inf


def _densities(sets: np.ndarray, cfg, tau: float, ge) -> np.ndarray:
    """_density over a stack of point sets (rows of sets); ge is their G and even totals at 0 < tau < inf."""
    j, k = np.triu_indices(cfg.n, 1)
    d = sets[:, j] - sets[:, k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logdelta = np.log(np.abs(d)).cumsum(axis=1)[:, -1] if d.shape[1] else np.zeros(len(d))
        if ge is None:
            logp, power, scale, p = _endpoint_form(cfg, tau)
            logp = logp + power * logdelta
            sign = 1.0
        else:
            pf_sign, pf_log = _g_pfaffian(*ge, cfg.n)
            logp = _log_const(cfg, tau) + logdelta
            logp += pf_log
            sign = pf_sign * np.sign(d).prod(axis=1)
            scale, p = 2.0 * cfg.omega, 2.0 * cfg.a + 1.0
        x = sets / scale
        for term in (-x if p == 0.0 else p * np.log(x) - x).T:  # ln(x^p e^{-x}), point by point
            logp += term
        return np.where((logdelta == -math.inf) | (logp == -math.inf), 0.0, sign * np.exp(logp))


# Points per block of a stacked jpd.  At 512, 1024 and 2048 points the
# 2x2 and 3x4 stacks of _CHUNK's note took 10.8, 8.9 and 7.1 ms and 58,
# 41 and 34 ms; perfbench pfaffian-kernels' peak RSS read 40.55 MiB at
# 1024 and 41.10 at 2048, against 40.81 with a term table (5 runs each).
_STACK_POINTS = 1024


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
    Pfaffian representation (see _density).  For square arrays the
    q = 0 form diverges as any eigenvalue reaches 0 (returns +inf there).

    One set reads a scalar weighted-Laguerre stream per point, and its G
    goes to the float path of linalg.pfaffian_signed_log, step for step the
    elimination a stack takes in numpy.  A stack is taken in blocks of
    _STACK_POINTS points, each folded into G as its stream runs
    (_g_stream), so no block keeps a term table.  Every point stops on its
    own sums and every G is summed in products of one length (_g_table), so
    a set's value is bit for bit the same alone or in any stack or block,
    and it matches the single call to rounding.

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
    single = lams.ndim == 1
    if single:
        lams = lams.tolist()
    _check_finite(lams, "eigenvalues")
    tau = crossover_tau(q)
    series = 0.0 < q < 1.0
    if single:
        ge = None
        if series:
            x = [lam / (2.0 * cfg.omega) for lam in lams]
            g, even = _g_table(_term_table(_term_rows(_streams(x, a), a, tau, ctrl))[None])
            ge = g[0], even[0]
        return _density(lams, cfg, tau, ge)
    out = np.empty(len(lams))
    step = max(1, _STACK_POINTS // n)
    for lo in range(0, len(lams), step):
        sets = lams[lo : lo + step]
        ge = _g_stream(sets / (2.0 * cfg.omega), a, tau, ctrl) if series else None
        out[lo : lo + len(sets)] = _densities(sets, cfg, tau, ge)
    return out


# ---------------------------------------------------------------------------
# skew-orthogonal polynomials (phi) and dual functions (psi)
#
# Internal, weight-stripped evaluators return the series multiplied by
# x^{-a} (phi family) or x^{-(a+1)} (psi/omega family); their callers
# reattach the powers.  All formulas live on x = lambda/(2 omega).


def _phi_core(j: int, w: np.ndarray, cfg: ChannelConfig, tau: float):
    """phi_j / x^a, read from the row w of x (orders up to j + 1, on its first axis).

    Pair mu rests on the base order k = 2 mu + (N mod 2); odd N's last
    index j = N - 1 has its own form.  Like _half_range it broadcasts over
    the rest of w.
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


def _phi_rows(w: np.ndarray, cfg: ChannelConfig, tau: float) -> np.ndarray:
    """phi_0..phi_{K-1} / x^a, K = N - (N mod 2), one row per point, from the orders-first rows w.

    The rows take the shape of w past its orders axis: (points, K) for a
    point set, (sets, points, K) for a stack of them.
    """
    k2 = cfg.n - cfg.c
    phi = np.empty(w.shape[1:] + (k2,))
    for j in range(k2):
        phi[..., j] = _phi_core(j, w, cfg, tau)
    return phi


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


# ---------------------------------------------------------------------------
# two-point kernels


def _s_lue_core(wx: np.ndarray, wy: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Finite Christoffel-Darboux-type sum, stripped of x^a y^{a+1}, from the rows of x and y.

    The rows hold the orders on their first axis, and the sum broadcasts
    over the rest: a pair of points, the nodes of a quadrature, or every
    pair of a point set.  The orders are added one by one, elementwise, so
    a pair's value rounds the same in every shape (np.dot would round a
    1-D row, a matrix and a strided stack each its own way).
    """
    a = cfg.a
    acc = 0.0
    for mu in range(cfg.n):
        acc = acc + math.exp(-2.0 * _log_alpha(a, mu)) * (wx[mu] * wy[mu])  # 1/alpha_mu^2
    return math.exp((2.0 * a + 2.0) * math.log(2.0)) * acc


def _s_corr_lead(wx: np.ndarray, cfg: ChannelConfig, tau: float):
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
    _check_finite([x, y], "arguments")
    if not tau >= 0.0:
        raise ValueError("tau must be >= 0")
    a = cfg.a
    wx, xs = _row(x, cfg)
    wy, ys = (wx, xs) if y == x else _row(y, cfg)
    core = float(_s_lue_core(wx, wy, cfg))
    if tau == 0.0:
        # S = x^a [y^{a+1} S_lue-core + wt_{N-1}(x) D(y)]: the whole bracket
        # shares the bare x^a edge factor
        d = float(_d_zero(_half_range(wy, y, cfg)[cfg.n], cfg))
        if x == y:
            # the LUE piece recombines to x^{2a+1}, as _kernel_s_diagonal takes it
            return edge_pow(x, 2.0 * a + 1.0) * core + edge_pow(x, a) * wx[cfg.n - 1] * d
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


# ---------------------------------------------------------------------------
# level density


def _diagonal_parts(x: np.ndarray, cfg: ChannelConfig, zero: bool):
    """The tau-free pieces of S_N(x, x) over the 1-D array x, from one array stream.

    The stream (``specfun.weighted_laguerre_array``) left at order N, the
    row wt_0..wt_{N-1}(x) with the orders first, the LUE core and, if zero,
    the factor D(x) of the tau = 0 bracket (else None).  Capacity builds
    its quadrature nodes from the same pieces.
    """
    n = cfg.n
    ws = weighted_laguerre_array(2.0 * cfg.a + 1.0, x)
    w = np.array(list(itertools.islice(ws, n)))
    d = _d_zero(_half_range(w, x, cfg)[n], cfg) if zero else None
    return ws, w, _s_lue_core(w, w, cfg), d


def _kernel_s_diagonal(
    x: np.ndarray, cfg: ChannelConfig, tau: float, ctrl: SeriesControl
) -> np.ndarray:
    """S_N(x, x) at every point of the 1-D array x >= 0, as kernel_s gives it.

    One stream runs over all the points (_diagonal_parts): its first N
    orders give the LUE core, and at 0 < tau < inf it reads on into the
    correction series over the orders N+1, N+3, ... (_series_array), two
    orders per read.  Every weight is reattached point by point with
    ``specfun.edge_pow``, so each value is kernel_s(x, x) bit for bit,
    except where the stream joins in log space (x above about 667).
    """
    n, a = cfg.n, cfg.a
    xs = x.tolist()
    if not xs:
        return np.empty(0)
    ws, w, core, d = _diagonal_parts(x, cfg, tau == 0.0)
    if 0.0 < tau < math.inf:
        core = core + _s_corr_lead(w, cfg, tau) * _series_array(ws, a, tau, n + 1, len(xs), ctrl)
    out = np.array([edge_pow(u, 2.0 * a + 1.0) for u in xs]) * core
    if tau == 0.0:
        # x^{2a+1} S_lue-core + x^a wt_{N-1}(x) D(x), as kernel_s at x = y
        out += np.array([edge_pow(u, a) for u in xs]) * w[n - 1] * d
    return out


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
    one array stream (see _kernel_s_diagonal), bit for bit the same values.
    """
    if np.ndim(lam) == 0:
        _check_finite([lam], "lambda")
        x = lam / (2.0 * cfg.omega)
        return float(kernel_s(x, x, cfg, crossover_tau(q), ctrl)) / (2.0 * cfg.omega)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"lambda must be a float or a 1-D array (got shape {lam.shape})")
    _check_finite(lam, "lambda")
    x = lam / (2.0 * cfg.omega)
    return _kernel_s_diagonal(x, cfg, crossover_tau(q), ctrl) / (2.0 * cfg.omega)


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

    p and r hold one row of function values per point, over any leading
    axes.  With g = p r^T the matrix is g - g^T, so it is exactly
    antisymmetric.
    """
    g = p @ np.swapaxes(r, -1, -2)
    return g - np.swapaxes(g, -1, -2)


def _blocks(x: np.ndarray, cfg: ChannelConfig, tau: float, ctrl: SeriesControl):
    """The weight-stripped S, A and B over every pair of points of each set in the stack x.

    x has shape (sets, points), and each block (sets, points, points).  At
    tau = inf (q = 1) S is the LUE core and there is no A or B (None).
    Each point's row feeds S and A.  At tau = 0 its half-range table gives
    D and the duals: row j of S and of A drops x_j^a, column k of A drops
    x_k^a, and B = -sgn(x_j - x_k)/2 + psi-pair sum (+ parity term for odd
    N) carries no weight.  For tau > 0 the row's stream, left at order N,
    runs on into the B rows: B is minus the restricted G of the point set.
    The S correction's y factor is e^{(N+1) tau} times a B row's total of
    the orders N+1, N+3, ...  A and B are balanced so the growing phi-block
    and the decaying psi-block stay O(1).

    Every point reads its own scalar stream, and the term table holds all
    the points of the stack.  Every product past that is elementwise, or
    in chunks of one length (_g_table), so a set's blocks do not depend
    on the stack it came in.
    """
    n = cfg.n
    k2 = n - cfg.c
    w_rows, streams = zip(*(_row(u, cfg) for u in x.ravel().tolist()))
    w = np.moveaxis(np.array(w_rows).reshape(x.shape + (-1,)), -1, 0)  # orders first
    s = _s_lue_core(w[..., :, None], w[..., None, :], cfg)
    if math.isinf(tau):
        return s, None, None
    bal = math.exp(-(n - 1.0) * tau)
    phi = _phi_rows(w, cfg, tau)
    a = _pair_matrix(phi[..., 1::2], phi[..., 0::2]) * bal
    if tau == 0.0:
        i = _half_range(w, x, cfg)
        p = x ** (cfg.a + 1.0)
        # the index j outermost in memory: BLAS takes the psi pairs transposed
        psi = np.moveaxis(np.array([_psi_zero(j, w, i, p, cfg) for j in range(n)]), 0, -1)
        sgn = np.sign(x[..., :, None] - x[..., None, :])
        b = _pair_matrix(psi[..., 0:k2:2], psi[..., 1:k2:2]) - 0.5 * sgn
        if cfg.c:
            last = psi[..., n - 1]
            b += 0.5 * (last[..., :, None] - last[..., None, :])
        return s * p[..., None, :] + w[n - 1][..., :, None] * _d_zero(i[n], cfg)[..., None, :], a, b
    t = _term_table(_term_rows(streams, cfg.a, tau, ctrl, n)).reshape(x.shape + (-1,))
    odd = np.cumsum(t[..., 1::2], axis=-1)[..., -1]
    s += _s_corr_lead(w, cfg, tau)[..., :, None] * (math.exp((n + 1.0) * tau) * odd)[..., None, :]
    return s, a, -_g_table(t)[0] / bal


def _doubled_kernel(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2n x 2n matrices whose 2 x 2 block (j, k) is [[s_jk, a_jk], [b_jk, s_kj]], per set."""
    n_pts = s.shape[-1]
    mat = np.empty(s.shape[:-2] + (2 * n_pts, 2 * n_pts))
    mat[..., 0::2, 0::2] = s
    mat[..., 0::2, 1::2] = a
    mat[..., 1::2, 0::2] = b
    mat[..., 1::2, 1::2] = np.swapaxes(s, -1, -2)
    return mat


def correlation_fn(
    points,
    cfg: ChannelConfig,
    q: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float | np.ndarray:
    """n-level correlation function R_n(lambda_1..lambda_n) at parameter q.

    points is one point set, shape (n,), and gives a float; or a stack of m
    sets of one order n, shape (m, n), and gives an array of m values (an
    empty stack gives an empty array).  Computed as the nonnegative square
    root of the ordinary determinant of the doubled kernel matrix (the
    plain kernel determinant at q = 1); a determinant negative beyond
    tolerance, or NaN, raises NumericalConsistencyError rather than being
    clamped, and one such set raises for the whole stack.  The S, A and B
    matrices of every set are built at once (_blocks) and interleaved into
    the doubled matrices, whose determinants are one batched call; for
    q > 0 B is summed by the term table of jpd's G and the S correction
    comes from the B rows, so R_n costs about as much as jpd.  Each set is
    finished on its own (_signed_sqrt_det), so its value is the same bit
    for bit alone or in any stack.

    R_n loses relative accuracy as points close in.  The determinant
    vanishes with the squared gaps while its O(1) entries do not, so it is
    formed by cancellation; neither the square root nor the series
    tolerance is the cause, and the q = 1 branch, which takes no root,
    degrades the same way.  At n = N, N! * jpd(points) is the accurate
    route: jpd factors the Vandermonde product out exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValueError(f"need one point set or a stack of them, got shape {pts.shape}")
    n_pts = pts.shape[-1]
    if not 1 <= n_pts <= cfg.n:
        raise ValueError(f"number of points must lie in 1..{cfg.n}")
    _check_finite(pts, "points")
    tau = crossover_tau(q)
    omega, a = cfg.omega, cfg.a
    x = pts.reshape(-1, n_pts) / (2.0 * omega)

    # the stripped kernels leave the weights x^a (q = 0) or x^{2a+1}
    # (q > 0) to reattach; a set whose weight is 0 needs no determinant
    power = a if q == 0.0 else 2.0 * a + 1.0
    log_scales = []
    for row in x.tolist():
        log_scale = 0.0
        for xi in row:
            log_scale += edge_log_pow(xi, power)
        log_scales.append(log_scale)
    live = [k for k, log_scale in enumerate(log_scales) if log_scale != -math.inf]
    out = np.zeros(len(x))
    if live:
        blocks = _blocks(x if len(live) == len(x) else x[live], cfg, tau, ctrl)
        mats = blocks[0] if q == 1.0 else _doubled_kernel(*blocks)
        signs, logdets = linalg.determinant_signed_log(mats)
        if np.isnan(logdets).any():
            raise NumericalConsistencyError("correlation determinant is undefined (NaN kernel entry)")
        for k, sign, logdet, mat in zip(live, signs.tolist(), logdets.tolist(), mats):
            log_scale = log_scales[k]
            if log_scale == math.inf and logdet == -math.inf:
                # an infinite edge weight (x^a at a point 0) times a determinant
                # that underflowed to 0 is no number; returned, it would read NaN or 0
                raise NumericalConsistencyError(
                    "correlation is undefined: the edge weight at a point 0 is infinite "
                    "and the determinant underflows"
                )
            log_scale -= n_pts * math.log(2.0 * omega)
            out[k] = _signed_sqrt_det(int(sign), logdet, mat, log_scale, square=q < 1.0)
    return float(out[0]) if pts.ndim == 1 else out


def _signed_sqrt_det(
    sign: int, logdet: float, mat: np.ndarray, log_scale: float, square: bool
) -> float:
    """Finish one set's correlation from the (sign, log|det|) of its matrix mat.

    square takes the root of a doubled-kernel determinant (q < 1); at q = 1
    mat is the plain kernel matrix.  A negative determinant within round-off
    of the matrix's Hadamard bound gives 0.0 in either case: with one point
    far in the tail, an underflowed entry can leave it so.
    """
    if sign == 0:
        return 0.0
    if sign < 0:
        norms = np.sqrt(np.sum(mat * mat, axis=1))
        log_had = float(np.sum(np.log(np.maximum(norms, 1e-300))))
        if logdet > log_had + math.log(1e-9):
            raise NumericalConsistencyError("correlation determinant is negative beyond tolerance")
        return 0.0
    return math.exp((0.5 * logdet if square else logdet) + log_scale)
