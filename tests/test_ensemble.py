import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hoytmimo import ensemble, specfun
from hoytmimo.ensemble import (
    ChannelConfig,
    SeriesControl,
    SeriesTruncationError,
    correlation_fn,
    crossover_tau,
    density_mp,
    g_tau,
    g_zero,
    jpd,
    kernel_s,
    level_density,
    mp_support,
    omega_tau,
)
from hoytmimo.validation import g_tau_transposed, jpd_normalization_n2
from test_specfun import laguerre

CTRL = SeriesControl()


class TestChannelConfig:
    def test_derived_parameters(self):
        cfg = ChannelConfig(3, 6)
        assert cfg.n == 3 and cfg.m_dim == 6
        assert 2 * cfg.a + 1 == 3
        assert cfg.c == 1

    def test_square(self):
        cfg = ChannelConfig(4, 4)
        assert cfg.a == -0.5 and cfg.c == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(0, 2)
        with pytest.raises(ValueError):
            ChannelConfig(2, 2, omega=0.0)


class TestCrossoverTau:
    def test_endpoints(self):
        assert crossover_tau(0.0) == 0.0
        assert math.isinf(crossover_tau(1.0))

    def test_mid(self):
        assert math.exp(-crossover_tau(0.5)) == pytest.approx(0.6, rel=1e-15)


class TestGZero:
    def test_values(self):
        assert g_zero(2.0, 1.0) == 0.5
        assert g_zero(1.0, 2.0) == -0.5
        assert g_zero(1.3, 1.3) == 0.0


class TestGTau:
    def test_diagonal_zero(self):
        assert g_tau(1.7, 1.7, 0.5, 0.4, CTRL) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 8.0), st.floats(0.05, 8.0), st.floats(0.2, 3.0))
    def test_antisymmetry(self, x, y, tau):
        a = 0.5
        v1 = g_tau(x, y, a, tau, CTRL)
        v2 = g_tau(y, x, a, tau, CTRL)
        assert v1 + v2 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(v1)))

    @pytest.mark.parametrize("tau", [0.2, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.5])
    def test_representation_equality(self, tau, a):
        v1 = g_tau_transposed(0.7, 1.9, a, tau, CTRL)
        v2 = g_tau(0.7, 1.9, a, tau, CTRL)
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_large_tau_single_term(self):
        a, tau, x, y = 0.5, 8.0, 0.7, 1.9
        alpha = 2.0 * a + 1.0
        k00 = math.exp(
            math.lgamma(0.5) + math.lgamma(1.0) - math.lgamma(a + 1.5) - math.lgamma(a + 2.0)
        )
        w = lambda t: t ** (a + 1.0) * math.exp(-t)  # noqa: E731
        lead = (
            2.0
            * w(x)
            * w(y)
            * math.exp(-tau)
            * k00
            * (laguerre(1, alpha, 2 * y) - laguerre(1, alpha, 2 * x))
        )
        assert g_tau(x, y, a, tau, CTRL) == pytest.approx(lead, rel=1e-6)

    def test_vanishes_on_axes(self):
        assert g_tau(0.0, 2.0, 0.5, 0.4, CTRL) == 0.0
        assert g_tau(1.3, 0.0, -0.5, 0.4, CTRL) == 0.0

    def test_rejects_tau_zero(self):
        with pytest.raises(ValueError):
            g_tau(1.0, 2.0, 0.5, 0.0, CTRL)

    def test_truncation_failure_advises(self):
        tight = SeriesControl(rel_tol=1e-10, max_terms=50)
        with pytest.raises(SeriesTruncationError, match="q=0"):
            g_tau(1.0, 2.0, 0.5, 0.01, tight)


class TestOmegaTau:
    def test_tau_zero_is_half(self):
        for x in (0.0, 0.3, 5.0):
            assert omega_tau(x, 0.5, 0.0) == 0.5

    def test_large_tau_leading_term(self):
        a, tau, x = 0.5, 6.0, 1.0
        lead = (
            x ** (a + 1.0)
            * math.exp(-x)
            * math.exp(math.lgamma(0.5) - math.lgamma(a + 1.5))
        )
        assert omega_tau(x, a, tau, CTRL) == pytest.approx(lead, rel=1e-6)

    # omega_tau(x, a, 0.002) from the same series summed with 50 significant
    # digits (mpmath, Laguerre recurrence and a Gamma-function ratio per
    # term, about 42000 orders, until 50 consecutive terms fell below 1e-40
    # of the sum); a dps = 70 rerun agreed to all 30 digits kept
    @pytest.mark.parametrize(
        "a,x,expect",
        [
            (-0.5, 0.3, 0.500768655858977464590974736223),
            (-0.5, 2.0, 0.499562722980392641364096657804),
            (0.5, 0.3, 0.500095817207790870047666321121),
            (0.5, 2.0, 0.500312503994144862988797913549),
            (2.5, 0.3, 0.488844527724392887852288554562),
            (2.5, 2.0, 0.500311502621595138256346936941),
        ],
    )
    def test_long_series_matches_high_precision_values(self, a, x, expect):
        # about 2e4 orders: the stepped Gamma ratios must not drift
        ctrl = SeriesControl(rel_tol=1e-17, max_terms=10**6)
        assert omega_tau(x, a, 0.002, ctrl) == pytest.approx(expect, rel=1e-13, abs=0.0)


class TestJpd:
    def test_coincident_eigenvalues(self):
        cfg = ChannelConfig(2, 2)
        assert jpd([1.3, 1.3], cfg, 0.5, CTRL) == 0.0

    def test_q0_branch_is_closed_form(self):
        # dispatch goes to the endpoint expression; check against a direct
        # transcription of it
        cfg = ChannelConfig(2, 3)
        a, omega, n = cfg.a, cfg.omega, cfg.n
        logc = 0.5 * n * math.log(math.pi) - n * math.log(2.0)
        for k in range(1, n + 1):
            logc -= math.lgamma(0.5 * k + 1.0) + math.lgamma(0.5 * k + a + 0.5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam = np.sort(rng.uniform(0.1, 6.0, size=2))
            x = lam / (2.0 * omega)
            direct = (
                math.exp(logc)
                / (2.0 * omega) ** (0.5 * n * (n + 1))
                * abs(lam[0] - lam[1])
                * (x[0] ** a * math.exp(-x[0]))
                * (x[1] ** a * math.exp(-x[1]))
            )
            assert jpd(lam, cfg, 0.0, CTRL) == pytest.approx(direct, rel=1e-12)

    def test_normalization_n1_all_q(self):
        cfg = ChannelConfig(1, 1)
        for q in (0.0, 0.3, 0.7, 1.0):
            val, _ = quad(
                lambda u: 2.0 * u * jpd([u * u], cfg, q, CTRL),
                0.0,
                7.0,
                epsabs=0.0,
                epsrel=1e-9,
                limit=200,
            )
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalization_n2_crossover(self):
        assert jpd_normalization_n2(ChannelConfig(2, 2), 0.5, CTRL) == pytest.approx(
            1.0, abs=1e-4
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5000))
    def test_permutation_symmetry_and_sign(self, seed):
        cfg = ChannelConfig(3, 4)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.05, 9.0, size=3)
        v_sorted = jpd(np.sort(lam), cfg, 0.4, CTRL)
        v_perm = jpd(lam, cfg, 0.4, CTRL)
        assert abs(v_perm) == pytest.approx(abs(v_sorted), rel=1e-10)
        assert v_sorted >= 0.0

    def test_square_array_origin_divergence(self):
        cfg = ChannelConfig(2, 2)
        assert jpd([0.0, 1.0], cfg, 0.0, CTRL) == math.inf

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            jpd([1.0], ChannelConfig(2, 2), 0.5, CTRL)


class TestLevelDensity:
    def test_lue_single_antenna_exponential(self):
        cfg = ChannelConfig(1, 1)
        for lam in (0.0, 0.4, 2.0, 6.0):
            assert level_density(lam, cfg, 1.0) == pytest.approx(
                math.exp(-lam), rel=1e-12
            )

    def test_loe_single_antenna_chi_square(self):
        cfg = ChannelConfig(1, 1)
        for lam in (0.2, 1.0, 4.0):
            expect = math.exp(-lam / 2.0) / math.sqrt(2.0 * math.pi * lam)
            assert level_density(lam, cfg, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_endpoint_dispatch_is_exact(self):
        cfg = ChannelConfig(3, 6)
        for lam in (0.5, 2.0, 8.0):
            x = lam / (2.0 * cfg.omega)
            assert level_density(lam, cfg, 1.0) == kernel_s(x, x, cfg, math.inf) / (2.0 * cfg.omega)
            assert level_density(lam, cfg, 0.0) == kernel_s(x, x, cfg, 0.0) / (2.0 * cfg.omega)

    @pytest.mark.parametrize(
        "nt,nr,q", [(2, 2, 1.0), (3, 6, 0.5), (4, 15, 0.0), (2, 2, 0.35), (3, 4, 0.0)]
    )
    def test_normalization(self, nt, nr, q):
        cfg = ChannelConfig(nt, nr)
        hi = math.sqrt(2.0 * mp_support(cfg)[1] + 30.0)
        val, _ = quad(
            lambda u: 2.0 * u * level_density(u * u, cfg, q, CTRL),
            0.0,
            hi,
            epsabs=0.0,
            epsrel=1e-9,
            limit=200,
        )
        assert val == pytest.approx(cfg.n, abs=1e-6)

    def test_series_matches_lue_at_large_tau(self):
        cfg = ChannelConfig(3, 5)
        q = math.sqrt((1.0 - math.exp(-20.0)) / (1.0 + math.exp(-20.0)))
        for lam in np.linspace(0.05, 20.0, 50):
            v1 = level_density(float(lam), cfg, q, CTRL)
            v2 = level_density(float(lam), cfg, 1.0)
            assert v1 == pytest.approx(v2, rel=1e-9)

    def test_continuity_toward_loe(self):
        # the crossover density approaches the q = 0 closed form linearly
        # in tau; at tau = 1e-4 the measured gap is ~6e-4 near the hard
        # edge and one order larger at tau = 1e-3
        cfg = ChannelConfig(2, 2)
        ctrl = SeriesControl(rel_tol=1e-12, max_terms=2_000_000)
        gaps = {}
        for tau in (1e-3, 1e-4):
            q = math.sqrt((1.0 - math.exp(-tau)) / (1.0 + math.exp(-tau)))
            worst = 0.0
            for lam in np.linspace(0.1, 10.0, 23):
                v1 = level_density(float(lam), cfg, q, ctrl)
                v2 = level_density(float(lam), cfg, 0.0)
                worst = max(worst, abs(v1 - v2))
            gaps[tau] = worst
        assert gaps[1e-4] < 1e-3
        assert gaps[1e-3] / gaps[1e-4] == pytest.approx(10.0, rel=0.15)

    # S_N(x, x) at tau = 0.002 (the level density times 2 omega) with its
    # correction series summed with 50 significant digits (mpmath, Laguerre
    # recurrence and a Gamma-function ratio per term, about 21000 terms,
    # until 50 consecutive terms fell below 1e-40 of the sum); a dps = 70
    # rerun agreed to all 30 digits kept
    @pytest.mark.parametrize(
        "nt,nr,x,expect",
        [
            (2, 2, 0.25, 1.18557288267949985199828447728),
            (2, 2, 1.0, 0.494428085610910846105629735475),
            (2, 4, 0.25, 0.875489369252904489603746130966),
            (3, 6, 0.75, 0.831513326442156320082792253206),
        ],
    )
    def test_long_density_series_matches_high_precision_values(self, nt, nr, x, expect):
        # about 2e4 terms in one plain running sum: rounding must not pile up
        ctrl = SeriesControl(rel_tol=1e-17, max_terms=10**6)
        got = kernel_s(x, x, ChannelConfig(nt, nr), 0.002, ctrl)
        assert got == pytest.approx(expect, rel=3e-13, abs=0.0)

    def test_no_memory_held_per_point(self):
        # near q = 0 each point runs a series of thousands of terms; after
        # 40 distinct points nothing of them may stay allocated
        cfg = ChannelConfig(2, 2)
        level_density(0.05, cfg, 0.05, CTRL)  # warm-up: first-call allocations are not per point
        tracemalloc.start()
        try:
            for lam in np.linspace(0.1, 8.0, 40):
                level_density(float(lam), cfg, 0.05, CTRL)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2**20

    @pytest.fixture
    def streams(self, monkeypatch):
        # one counter behind both names a weighted-Laguerre stream is started by
        opened = []
        inner = specfun.weighted_laguerre

        def counted(alpha, x):
            opened.append(x)
            return inner(alpha, x)

        monkeypatch.setattr(specfun, "weighted_laguerre", counted)
        monkeypatch.setattr(ensemble, "weighted_laguerre", counted)
        return opened

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_density_reads_one_stream(self, streams, q):
        level_density(1.3, ChannelConfig(4, 4), q, CTRL)
        assert len(streams) == 1

    def test_kernel_s_reads_one_stream_per_argument(self, streams):
        kernel_s(0.4, 1.9, ChannelConfig(4, 4), crossover_tau(0.5), CTRL)
        assert sorted(streams) == [0.4, 1.9]

    @pytest.mark.parametrize("nt,nr,expect", [(4, 4, 4), (3, 4, 3), (2, 2, 2)])
    def test_jpd_reads_one_stream_per_point(self, streams, nt, nr, expect):
        cfg = ChannelConfig(nt, nr)
        jpd([0.3, 1.1, 2.6, 4.0][: cfg.n], cfg, 0.5, CTRL)
        assert len(streams) == expect

    @pytest.mark.parametrize("q,expect", [(0.5, 4), (1.0, 4)])
    def test_correlation_streams(self, streams, q, expect):
        # one stream per point: its row, then its B row and S correction
        correlation_fn([0.3, 1.1, 2.6, 4.0], ChannelConfig(4, 4), q, CTRL)
        assert len(streams) == expect

    def test_gamma_ratio_cost_independent_of_series_length(self, monkeypatch):
        # the Gamma ratios are stepped inside the series, so the log-Gamma
        # calls a point makes do not grow with the terms its series needs
        calls = []

        def counted(v):
            calls.append(v)
            return math.lgamma(v)

        monkeypatch.setattr(ensemble, "log_gamma", counted)
        cfg = ChannelConfig(3, 3)
        with pytest.raises(SeriesTruncationError):
            level_density(1.0, cfg, 0.005, CTRL)
        truncating = len(calls)
        calls.clear()
        level_density(1.0, cfg, 0.5, CTRL)
        assert truncating == len(calls) <= 20

    def test_monotone_interpolation_regression(self):
        # adjacent-q curves stay close and move monotonically at a fixed
        # interior point: a guard against series blow-ups between endpoints
        cfg = ChannelConfig(2, 2)
        grid = np.linspace(0.2, 10.0, 25)
        qs = [0.0, 0.25, 0.5, 0.75, 1.0]
        curves = [
            np.array([level_density(float(v), cfg, q, CTRL) for v in grid]) for q in qs
        ]
        for c in curves:
            assert np.all(np.isfinite(c)) and np.all(c >= 0.0)
        # adjacent-q curves stay uniformly close: the interpolation never
        # oscillates or blows up between the exact endpoints
        for c1, c2 in zip(curves, curves[1:]):
            assert np.max(np.abs(c1 - c2)) < 0.5
        bulk_cap = 2.0 * max(curves[0].max(), curves[-1].max())
        for c in curves[1:-1]:
            assert c.max() <= bulk_cap


class TestDensityMp:
    def test_square_edges(self):
        cfg = ChannelConfig(4, 4)
        lo, hi = mp_support(cfg)
        assert lo == 0.0
        assert hi == pytest.approx(16.0)

    def test_zero_outside(self):
        cfg = ChannelConfig(3, 6)
        lo, hi = mp_support(cfg)
        assert density_mp(lo - 0.1, cfg) == 0.0
        assert density_mp(hi + 0.1, cfg) == 0.0

    @pytest.mark.parametrize("nt,nr", [(4, 4), (3, 6), (16, 16)])
    def test_normalization(self, nt, nr):
        cfg = ChannelConfig(nt, nr)
        lo, hi = mp_support(cfg)
        # lambda = mid - half*cos(t) removes both square-root edges
        mid, halfw = 0.5 * (hi + lo), 0.5 * (hi - lo)

        def f(t):
            lam = mid - halfw * math.cos(t)
            return density_mp(lam, cfg) * halfw * math.sin(t)

        val, _ = quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-9, limit=200)
        assert val == pytest.approx(cfg.n, rel=1e-6)

    def test_large_n_matches_exact(self):
        # nt=nr=16: both endpoint densities sit on the asymptotic curve at
        # plot scale over the central 80% of the support.  The measured
        # finite-N oscillation is ~2.8% of the window-local MP peak at
        # q=1, which bounds the strict ratio below 3%.
        cfg = ChannelConfig(16, 16)
        lo, hi = mp_support(cfg)
        grid = np.linspace(lo + 0.1 * (hi - lo), lo + 0.9 * (hi - lo), 81)
        mp_vals = np.array([density_mp(float(v), cfg) for v in grid])
        full = np.linspace((hi - lo) / 800.0, hi, 400)
        for q in (0.0, 1.0):
            exact = np.array([level_density(float(v), cfg, q, CTRL) for v in grid])
            dev = np.max(np.abs(exact - mp_vals))
            curve_peak = max(level_density(float(v), cfg, q, CTRL) for v in full)
            assert dev <= 0.02 * curve_peak
            assert dev <= 0.03 * mp_vals.max()


class TestDensityCurve:
    """level_density on a grid: the curve the CLI `density` command writes."""

    cfg = ChannelConfig(2, 3)
    grid = np.linspace(0.0, 25.0, 400)

    def _curve(self):
        return np.array([level_density(float(v), self.cfg, 0.5, CTRL) for v in self.grid])

    def test_marginal_curve_mass(self):
        values = self._curve() / self.cfg.n
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.trapezoid(values, self.grid) == pytest.approx(1.0, abs=1e-3)

    def test_level_curve_counts_levels(self):
        assert np.trapezoid(self._curve(), self.grid) == pytest.approx(self.cfg.n, abs=2e-3)


# Near the one-sided end the crossover series needs O(1/tau) rows; each row
# is O(1) work on running sums and counts once against max_terms.  R_N sums
# its B kernel with the same rows, so both sides stay fast down to q = 0.03.
@pytest.mark.parametrize("q", [0.1, 0.06, 0.03])
@pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_jpd_near_one_sided_matches_correlation(nt, nr, q):
    cfg = ChannelConfig(nt, nr)
    pts = np.linspace(0.8, 0.8 + 1.1 * (cfg.n - 1), cfg.n)
    expect = correlation_fn(pts, cfg, q, CTRL) / math.factorial(cfg.n)
    assert jpd(pts, cfg, q, CTRL) == pytest.approx(expect, rel=1e-6)


# Frozen values at the origin, where the edge powers x^a, x^{a+1} and
# x^{2a+1} decide: level_density(0), jpd([0, 1.3]) and kernel_s(0, 0.7)
# for the 2 x (3 + 2a) array.  jpd is pinned at its converged value: the
# default rel_tol leaves its series a few 1e-12 short.
ORIGIN_VALUES = [
    (-0.5, 0.0, math.inf, math.inf, math.inf),
    (-0.5, 0.5, 2.340627309983826, 0.3180009826713693, math.inf),
    (-0.5, 1.0, 2.0, 0.23028936511374062, math.inf),
    (0.0, 0.0, 0.9999999999999947, 0.08483243872366515, 1.376780065781566),
    (0.0, 0.5, 0.0, 0.0, 1.9065695405524896),
    (0.0, 1.0, 0.0, 0.0, 2.2247021609855144),
    (0.5, 0.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 0.0),
    (0.5, 1.0, 0.0, 0.0, 0.0),
]


@pytest.mark.parametrize("a,q,density,joint,kernel", ORIGIN_VALUES)
def test_origin_edge_values(a, q, density, joint, kernel):
    cfg = ChannelConfig(2, int(3 + 2 * a))
    assert cfg.a == a
    assert level_density(0.0, cfg, q) == pytest.approx(density, rel=1e-12, abs=0.0)
    converged = SeriesControl(rel_tol=1e-16, max_terms=10**6)
    assert jpd([0.0, 1.3], cfg, q, converged) == pytest.approx(joint, rel=1e-12, abs=0.0)
    assert kernel_s(0.0, 0.7, cfg, crossover_tau(q)) == pytest.approx(kernel, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 4), (8, 8), (4, 15)])
def test_d_zero_array_matches_scalar(nt, nr):
    # the q = 0 capacity row takes D over all nodes from one incomplete-gamma
    # recurrence; the kernels keep the scalar form
    cfg = ChannelConfig(nt, nr)
    t = np.array([0.3, 5.0])
    got = ensemble._d_zero_array(t, cfg)
    for value, tt in zip(got, t):
        assert value == pytest.approx(ensemble._d_zero(float(tt), cfg), rel=1e-12, abs=0.0)
