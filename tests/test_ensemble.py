import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hoytmimo import ensemble, linalg, specfun
from hoytmimo.ensemble import (
    ChannelConfig,
    NumericalConsistencyError,
    SeriesControl,
    SeriesTruncationError,
    correlation_fn,
    crossover_tau,
    density_mp,
    g_tau,
    jpd,
    kernel_s,
    level_density,
    mp_support,
)
from hoytmimo.validation import g_tau_transposed, jpd_normalization_n2
from pointwise_oracles import g_zero, kernel_a, omega_tau
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

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_non_finite_omega(self, omega):
        # an infinite omega put every point at x = 0: densities of 0 and a
        # capacity that ran its whole moment budget
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(2, 2, omega=omega)


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

    @pytest.mark.parametrize("a", [-0.5, 0.5, 2.5])
    def test_tau_inf_is_the_first_term(self, a):
        # only wt_0(x) = e^{-x} survives: x^{a+1} gamma_0 e^{-x}, which large
        # finite tau approaches; a few ulps apart, as x^{a+1} is taken by log
        gamma0 = math.exp(math.lgamma(0.5) - math.lgamma(a + 1.5))
        for x in (0.0, 0.3, 2.0, 9.0):
            got = omega_tau(x, a, math.inf)
            assert got == pytest.approx(x ** (a + 1.0) * gamma0 * math.exp(-x), rel=4e-15, abs=0.0)
            assert got == pytest.approx(omega_tau(x, a, 40.0, CTRL), rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("q,cached", [(0.0, "_log_c0"), (0.5, "_log_c0"), (1.0, "_log_c1")])
    def test_constant_cached_by_array_not_omega(self, q, cached):
        cache = getattr(ensemble, cached)
        cache.cache_clear()
        for omega in (0.7, 1.0, 1.3, 2.9):
            jpd([0.4, 1.7, 3.0], ChannelConfig(3, 4, omega=omega), q, CTRL)
        assert cache.cache_info().currsize == 1
        assert cache.cache_info().hits == 3

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


class TestJpdStack:
    """jpd over a stack of point sets, shape (m, N): one value per set."""

    @pytest.mark.parametrize("q", [0.0, 0.06, 0.35, 0.75, 0.95, 1.0])
    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 4), (5, 5)])
    def test_matches_single_calls(self, nt, nr, q):
        cfg = ChannelConfig(nt, nr)
        sets = np.random.default_rng(nt * 10 + nr).uniform(0.05, 2.0 * cfg.m_dim, (5, cfg.n))
        got = jpd(sets, cfg, q, CTRL)
        assert got.shape == (5,)
        for value, pts in zip(got, sets):
            assert value == pytest.approx(jpd(pts, cfg, q, CTRL), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.35, 0.75])
    def test_value_independent_of_batch(self, q):
        # the far point takes many more orders, joined in log space
        # (x = 900); the other sets' points still stop on their own sums
        cfg = ChannelConfig(2, 2, omega=0.5)
        sets = np.array([[0.4, 1.7], [2.2, 0.9]])
        alone = jpd(sets, cfg, q, CTRL)
        mixed = jpd(np.vstack((sets[:1], [[0.3, 900.0]], sets[1:])), cfg, q, CTRL)
        assert mixed[0] == alone[0] and mixed[2] == alone[1]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nt,nr,q", [(2, 2, 0.3), (3, 4, 0.35), (4, 4, 0.5), (5, 5, 0.75)])
    def test_value_independent_of_stack(self, nt, nr, q, seed):
        # far-tail sets read longer rows than the rest, and the sets come in
        # either order: each set's G still runs over its own width
        cfg = ChannelConfig(nt, nr)
        rng = np.random.default_rng(seed)
        sets = rng.uniform(0.1, 12.0, (20, cfg.n))
        tail = rng.uniform(0.1, 194.0, (3, cfg.n))
        alone = np.array([jpd(pts[None], cfg, q, CTRL)[0] for pts in sets])
        mixed = jpd(np.vstack((sets[:10], tail, sets[10:])), cfg, q, CTRL)
        assert np.array_equal(np.delete(mixed, [10, 11, 12]), alone)
        assert np.array_equal(jpd(sets[::-1], cfg, q, CTRL)[::-1], alone)
        single = np.array([jpd(pts, cfg, q, CTRL) for pts in sets])
        assert np.all(np.abs(alone - single) <= 1e-15 * np.abs(single))

    @pytest.mark.parametrize("extra", [0, 6, 2 * ensemble._CHUNK + 2])
    def test_g_table_is_the_same_alone_and_in_a_stack(self, extra):
        # sets of three widths and one all-zero set, in tables with more
        # trailing zero columns or fewer: each set's G and even totals are
        # those of its own table alone, bit for bit
        widths = (90, 44, 0, 64)
        rng = np.random.default_rng(7)
        t = np.zeros((len(widths), 4, max(widths) + extra))
        for rows, width in zip(t, widths):
            rows[:, :width] = rng.uniform(-1.0, 1.0, (4, width))
        g, even = ensemble._g_table(t)
        for k, width in enumerate(widths):
            for cols in (max(width, 2), width + 2 * ensemble._CHUNK + 4):
                g_alone, even_alone = ensemble._g_table(t[k : k + 1, :, :cols])
                assert np.array_equal(g[k], g_alone[0]) and np.array_equal(even[k], even_alone[0])

    @pytest.mark.parametrize("chunk", [2, 4])
    @pytest.mark.parametrize("q", [0.06, 0.35, 0.75])
    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 4)])
    def test_g_stream_is_g_table_of_the_whole_table(self, nt, nr, q, chunk, monkeypatch):
        # the stream folds chunk by chunk, carrying the even sums over; the
        # whole table of the same rows, from scalar streams, folds at once
        monkeypatch.setattr(ensemble, "_CHUNK", chunk)
        cfg = ChannelConfig(nt, nr)
        x = np.random.default_rng(nt + nr).uniform(0.05, 6.0 * cfg.m_dim, (7, cfg.n))
        tau = crossover_tau(q)
        rows = ensemble._term_rows(ensemble._streams(x.ravel(), cfg.a), cfg.a, tau, CTRL)
        assert len({len(row) for row in rows}) > 1  # points stop at different orders
        g, even = ensemble._g_table(ensemble._term_table(rows).reshape(x.shape + (-1,)))
        g_stream, even_stream = ensemble._g_stream(x, cfg.a, tau, CTRL)
        assert np.array_equal(g_stream, g) and np.array_equal(even_stream, even)

    def test_stack_memory_does_not_grow_near_q0(self):
        # near q = 0 each point reads thousands of orders; a block keeps
        # only G and one chunk of terms, also while it runs out of budget
        cfg = ChannelConfig(2, 2)
        sets = np.random.default_rng(3).uniform(0.1, 8.0, (256, 2))
        jpd(sets[:2], cfg, 0.5, CTRL)  # warm-up: first-call allocations are not per point
        peaks = []
        tracemalloc.start()
        try:
            jpd(sets, cfg, 0.03, CTRL)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            with pytest.raises(SeriesTruncationError):
                jpd(sets, cfg, 0.01, CTRL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 2 * 2**20

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_edge_sets_match_single_calls(self, q):
        cfg = ChannelConfig(2, 2)
        sets = np.array([[0.0, 1.3], [1.3, 1.3], [0.0, 0.0], [0.8, 2.1]])
        got = jpd(sets, cfg, q, CTRL)
        for value, pts in zip(got, sets):
            assert value == pytest.approx(jpd(pts, cfg, q, CTRL), rel=1e-12, abs=0.0)
        assert got[1] == 0.0 and got[2] == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_density_past_float_range_is_inf_in_both_shapes(self, q):
        # at tiny omega the density exceeds the float range: one set gives
        # inf, as the stack does, and raises no OverflowError
        cfg = ChannelConfig(2, 2, omega=1e-160)
        pts = [1e-161, 3e-161]
        assert jpd(pts, cfg, q, CTRL) == math.inf
        assert jpd(np.array([pts]), cfg, q, CTRL).tolist() == [math.inf]

    def test_more_sets_than_one_block(self):
        cfg = ChannelConfig(3, 4)
        sets = np.random.default_rng(4).uniform(0.1, 9.0, (2 * ensemble._STACK_POINTS // 3 + 5, 3))
        got = jpd(sets, cfg, 0.5, CTRL)
        for i in (0, len(sets) // 2, len(sets) - 1):
            assert got[i] == pytest.approx(jpd(sets[i], cfg, 0.5, CTRL), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.06, 0.35, 0.75])
    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 4)])
    def test_block_growth_keeps_values(self, nt, nr, q, monkeypatch):
        # the points grow along the stack, so the blocks read series of
        # different lengths, over many chunks of two pairs; every value is
        # the one the whole stack in one block gives, and the set's alone
        monkeypatch.setattr(ensemble, "_CHUNK", 2)
        cfg = ChannelConfig(nt, nr)
        sets = np.random.default_rng(5).uniform(0.1, 1.0, (40, cfg.n))
        sets *= np.geomspace(1.0, 150.0, len(sets))[:, None]
        whole = jpd(sets, cfg, q, CTRL)  # one block at the default _STACK_POINTS
        blocks = []
        inner = ensemble._g_stream

        def spy(x, *args):
            blocks.append(len(x))
            return inner(x, *args)

        monkeypatch.setattr(ensemble, "_g_stream", spy)
        monkeypatch.setattr(ensemble, "_STACK_POINTS", 8)
        got = jpd(sets, cfg, q, CTRL)
        assert blocks[:-1] == [8 // cfg.n] * (len(blocks) - 1) and sum(blocks) == len(sets)
        assert len(blocks) >= 10
        assert np.array_equal(got, whole)
        assert np.array_equal(got, [jpd(pts[None], cfg, q, CTRL)[0] for pts in sets])

    @pytest.mark.parametrize("nt,nr,q", [(2, 2, 0.35), (3, 4, 0.35), (4, 4, 0.75), (5, 5, 0.5)])
    def test_pfaffian_fast_path_is_bit_identical(self, nt, nr, q, monkeypatch):
        # G (bordered for odd N) is exactly antisymmetric, so skipping the
        # rebuild 0.5 (b - b^T) changes no value
        cfg = ChannelConfig(nt, nr)
        sets = np.random.default_rng(nt).uniform(0.1, 12.0, (30, cfg.n))
        g, even = ensemble._g_stream(sets / 2.0, cfg.a, ensemble.crossover_tau(q), CTRL)
        fast = ensemble._g_pfaffian(g, even, cfg.n), jpd(sets, cfg, q, CTRL), jpd(sets[0], cfg, q, CTRL)
        fast_one = ensemble._g_pfaffian(g[0], even[0], cfg.n)

        def rebuild(b):
            b = np.asarray(b, dtype=float)
            b = b.reshape((-1,) + b.shape[-2:])
            return 0.5 * (b - b.transpose(0, 2, 1))

        # the stack's rebuild, and the float path's, which calls it, for one matrix
        monkeypatch.setattr(linalg, "_validate_antisymmetric", rebuild)
        monkeypatch.setattr(linalg, "_antisymmetric_rows", lambda b: linalg._rebuilt_rows(b.tolist()))
        slow = ensemble._g_pfaffian(g, even, cfg.n), jpd(sets, cfg, q, CTRL), jpd(sets[0], cfg, q, CTRL)
        for a, b in zip(fast[0], slow[0]):
            assert np.array_equal(a, b)
        assert np.array_equal(fast[1], slow[1]) and fast[2] == slow[2]
        assert ensemble._g_pfaffian(g[0], even[0], cfg.n) == fast_one

    @pytest.mark.parametrize("q", [0.06, 0.35, 0.75, 0.95, 0.999])
    @pytest.mark.parametrize("nt,nr", [(1, 3), (2, 2), (3, 4), (4, 4), (5, 5), (3, 6), (6, 6)])
    def test_single_set_pfaffian_is_the_stacked_one(self, nt, nr, q, monkeypatch):
        # one set's G (bordered at odd N, 2x2 at N = 1) takes the
        # float path; _density fed the stacked Pfaffian of the same G
        # gives every value bit for bit
        cfg = ChannelConfig(nt, nr)
        sets = np.random.default_rng(10 * nt + nr).uniform(0.1, 3.0 * cfg.m_dim, (3, cfg.n))
        alone = [jpd(pts, cfg, q, CTRL) for pts in sets]
        assert all(math.isfinite(v) and v != 0.0 for v in alone)
        inner = ensemble._g_pfaffian
        seen = []

        def stacked(g, even, n):
            seen.append(g.shape)
            sign, logabs = inner(g[None], even[None], n)
            return int(sign[0]), float(logabs[0])

        monkeypatch.setattr(ensemble, "_g_pfaffian", stacked)
        assert [jpd(pts, cfg, q, CTRL) for pts in sets] == alone
        assert len(seen) == len(sets) and all(len(shape) == 2 for shape in seen)

    def test_empty_stack(self):
        assert jpd(np.empty((0, 2)), ChannelConfig(2, 2), 0.5, CTRL).shape == (0,)

    @pytest.mark.parametrize(
        "lams",
        [np.ones((3, 3)), np.ones((2, 3, 2)), np.array([[1.0, 2.0], [0.5, -1e-9]]), 1.0, [0.5, -1e-9]],
    )
    def test_rejects_bad_input(self, lams):
        with pytest.raises(ValueError):
            jpd(lams, ChannelConfig(2, 2), 0.5, CTRL)

    def test_truncating_stack_raises(self):
        with pytest.raises(SeriesTruncationError):
            jpd(np.array([[0.5, 1.5], [2.0, 3.0]]), ChannelConfig(2, 2), 0.3, SeriesControl(max_terms=5))

    def test_stack_reads_one_array_stream(self, monkeypatch):
        opened = []
        inner = specfun.weighted_laguerre_array

        def counted(alpha, x):
            opened.append(len(x))
            return inner(alpha, x)

        monkeypatch.setattr(ensemble, "weighted_laguerre_array", counted)
        monkeypatch.setattr(ensemble, "weighted_laguerre", None)  # no scalar stream
        jpd(np.array([[0.3, 1.1], [2.6, 4.0], [0.9, 5.0]]), ChannelConfig(2, 2), 0.5, CTRL)
        assert opened == [6]


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


class TestLevelDensityArray:
    """level_density over a 1-D array of lambda: one value per point, from one array stream."""

    GRID = [0.0, 1e-3, 0.37, 1.9, 6.5, 13.0, 40.0, 900.0]

    @pytest.mark.parametrize("q", [0.0, 0.06, 0.3, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize(
        "nt,nr", [(1, 1), (2, 2), (2, 3), (3, 3), (2, 5), (3, 6), (4, 4), (8, 8)]
    )
    def test_matches_scalar_calls_bit_for_bit(self, nt, nr, q):
        cfg = ChannelConfig(nt, nr, omega=1.3)
        got = level_density(np.array(self.GRID), cfg, q, CTRL)
        assert got.tolist() == [level_density(v, cfg, q, CTRL) for v in self.GRID]

    @pytest.mark.parametrize("q", [0.0, 0.06, 0.5, 1.0])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 3), (4, 4), (8, 8)])
    def test_log_space_join_within_rounding(self, nt, nr, q):
        # x = 750 and 1000: the array stream joins these in numpy's log and exp
        cfg = ChannelConfig(nt, nr)
        got = level_density(np.array([1500.0, 2000.0]), cfg, q, CTRL)
        for value, lam in zip(got.tolist(), (1500.0, 2000.0)):
            assert value == pytest.approx(level_density(lam, cfg, q, CTRL), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "nt,nr,q,edge",
        [(2, 2, 0.0, math.inf), (2, 3, 0.0, 1.0), (3, 5, 0.0, 0.0), (3, 5, 0.5, 0.0), (3, 5, 1.0, 0.0)],
    )
    def test_origin(self, nt, nr, q, edge):
        got = level_density(np.array([0.0, 1.0]), ChannelConfig(nt, nr), q, CTRL)
        assert got[0] == pytest.approx(edge, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_float_gives_float(self, q):
        cfg = ChannelConfig(2, 2)
        assert type(level_density(0.0, cfg, q)) is float
        assert type(level_density(1.3, cfg, q)) is float
        assert level_density(0.0, cfg, 0.0) == math.inf

    def test_shapes(self):
        cfg = ChannelConfig(2, 2)
        assert level_density(np.linspace(0.1, 3.0, 7), cfg, 0.5, CTRL).shape == (7,)
        assert level_density([0.4, 1.2], cfg, 0.5, CTRL).shape == (2,)
        assert level_density(np.empty(0), cfg, 0.5, CTRL).shape == (0,)

    @pytest.mark.parametrize("lam", [np.ones((2, 3)), np.array([0.5, -1e-9, 2.0])])
    def test_rejects_bad_input(self, lam):
        with pytest.raises(ValueError):
            level_density(lam, ChannelConfig(2, 2), 0.5, CTRL)

    @pytest.mark.parametrize("q", [0.06, 0.35])
    def test_value_independent_of_batch(self, q):
        # the far point's series runs for many more orders than the others';
        # they still stop on their own sums
        cfg = ChannelConfig(3, 3)
        alone = level_density(np.array([0.4, 1.7, 2.2]), cfg, q, CTRL)
        mixed = level_density(np.array([0.4, 600.0, 1.7, 2.2]), cfg, q, CTRL)
        assert mixed[[0, 2, 3]].tolist() == alone.tolist()

    def test_truncating_grid_raises(self):
        with pytest.raises(SeriesTruncationError):
            level_density(np.linspace(0.01, 10.0, 401), ChannelConfig(2, 2), 0.005, CTRL)

    def test_reads_one_array_stream(self, monkeypatch):
        opened = []
        inner = specfun.weighted_laguerre_array

        def counted(alpha, x):
            opened.append(len(x))
            return inner(alpha, x)

        monkeypatch.setattr(ensemble, "weighted_laguerre_array", counted)
        monkeypatch.setattr(ensemble, "weighted_laguerre", None)  # no scalar stream
        for q in (0.0, 0.5, 1.0):
            level_density(np.linspace(0.0, 9.0, 31), ChannelConfig(4, 4), q, CTRL)
        assert opened == [31, 31, 31]


class TestDensitySeriesBlocks:
    """The array density series sums and stops in blocks of pairs, bit for bit the scalar series."""

    CHUNK = ensemble._SERIES_CHUNK

    @staticmethod
    def pairs_read(x, cfg, tau):
        """The pairs kernel_s(x, x) reads: the smallest max_terms at which it does not raise."""
        lo, hi = 0, 4096
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                kernel_s(x, x, cfg, tau, SeriesControl(max_terms=mid))
                hi = mid
            except SeriesTruncationError:
                lo = mid
        return hi

    @pytest.mark.parametrize("q", [0.45, 0.3])
    def test_stops_around_a_block_edge(self, q):
        # at q = 0.45 the grid's points stop after 27 to 37 pairs, at q = 0.3
        # after 56 to 72: each range spans the last pair of some block
        cfg = ChannelConfig(2, 2, omega=1.3)
        tau = crossover_tau(q)
        grid = np.linspace(0.0, 40.0, 81).tolist()
        reads = {x: self.pairs_read(x, cfg, tau) for x in grid}
        end = next(k for k in itertools.count(self.CHUNK, self.CHUNK) if k > min(reads.values()))
        assert end < max(reads.values()) and self.CHUNK <= ensemble._SERIES_CELLS // 5
        # third small term just before, on and just after the block's last
        # pair, then the first and the last point to stop; taken in both
        # orders, so the first column is once the first and once the last
        picks = [next(x for x in grid if reads[x] == p) for p in (end - 1, end, end + 1)]
        picks += [min(grid, key=reads.get), max(grid, key=reads.get)]
        budgets = (1, 2, 3, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, end - 1, end, end + 1)
        for budget in (CTRL.max_terms,) + budgets:
            ctrl = SeriesControl(max_terms=budget)
            for pts in [picks, picks[::-1]] + [[x] for x in picks]:
                if max(reads[x] for x in pts) > budget:
                    with pytest.raises(SeriesTruncationError):
                        ensemble._kernel_s_diagonal(np.array(pts), cfg, tau, ctrl)
                else:
                    got = ensemble._kernel_s_diagonal(np.array(pts), cfg, tau, ctrl)
                    assert got.tolist() == [kernel_s(x, x, cfg, tau, ctrl) for x in pts]

    def test_stopped_point_keeps_its_first_total(self):
        # the near point meets runs of three small terms again while the far
        # one reads on, and its total still moves with the terms past its stop
        tau = crossover_tau(0.3)
        a, k0 = -0.5, 3  # 2x2, from order N + 1

        def total(x, ctrl):
            ws = itertools.islice(specfun.weighted_laguerre(0.0, x), k0, None)
            return ensemble._series(ws, a, tau, k0, ctrl, "")

        ws = specfun.weighted_laguerre_array(0.0, [0.5, 3.0])
        for _ in range(k0 - 1):  # the series reads on from order k0 - 2 in pairs
            next(ws)
        got = ensemble._series_array(ws, a, tau, k0, 2, CTRL)
        assert got.tolist() == [total(0.5, CTRL), total(3.0, CTRL)]
        assert total(0.5, SeriesControl(rel_tol=1e-13)) != got[0]


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

    @pytest.mark.parametrize(
        "cfg", [ChannelConfig(2, 2), ChannelConfig(4, 4, 1.3), ChannelConfig(3, 6), ChannelConfig(4, 15)]
    )
    def test_array_matches_scalar_loop(self, cfg):
        # the scalar formula point by point, with the support's edges, 0 and points past hi
        lo, hi = mp_support(cfg)

        def scalar(lam):
            if lam <= lo or lam >= hi:
                return 0.0
            return math.sqrt((hi - lam) * (lam - lo)) / (2.0 * math.pi * cfg.omega * lam)

        grid = np.concatenate([[0.0, 1e-300, lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
                                hi * 1.5, 1e300], np.linspace(0.0, 1.3 * hi, 4001)])
        got = density_mp(grid, cfg)
        assert got.shape == grid.shape
        assert got.tolist() == [scalar(v) for v in grid.tolist()]
        assert got[2] == got[3] == got[6] == 0.0
        for v in (0.37 * hi, np.float64(0.37 * hi), hi):
            value = density_mp(v, cfg)
            assert type(value) is float and value == scalar(float(v))

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
    # the q = 0 capacity row takes D over all its nodes from one half-range
    # table, the kernels from one table per point: the same function
    cfg = ChannelConfig(nt, nr)
    t = np.array([0.0, 0.3, 5.0, 60.0])
    rows = np.array([ensemble._row(u, cfg)[0] for u in t]).T
    got = ensemble._d_zero(ensemble._half_range(rows, t, cfg)[cfg.n], cfg)
    for value, tt, w in zip(got, t, rows.T):
        d = ensemble._d_zero(ensemble._half_range(w, tt, cfg)[cfg.n], cfg)
        assert value == pytest.approx(float(d), rel=1e-13, abs=0.0)


# I_k(x) = (1/2) int_0^inf sgn(x - y) y^a wt_k(y) dy at orders N - 1 and N,
# frozen from 50-digit mpmath quadrature of the one-sided integral on the
# side where it does not cancel (int_0^x, or int_x^inf past the bulk); the
# difference of the two half integrals loses the tiny odd-order values
HALF_RANGE_REFS = [
    (16, 16, 0.3, 15, 0.12916881489057205),
    (16, 16, 0.3, 16, -0.042077006328567744),
    (16, 16, 5.0, 15, 0.14721069080803505),
    (16, 16, 5.0, 16, -0.024316706454514293),
    (16, 16, 20.0, 15, 0.14454566355264534),
    (16, 16, 20.0, 16, 0.029169499082989762),
    (16, 16, 60.0, 15, 2.1182486384790026e-9),
    (16, 16, 60.0, 16, 0.1740377770377267),
    (24, 24, 0.3, 23, 0.1605081543609942),
    (24, 24, 0.3, 24, 0.02012111756144799),
    (24, 24, 5.0, 23, 0.12622835345583565),
    (24, 24, 5.0, 24, -0.021902906593275013),
    (24, 24, 20.0, 23, 0.13170840907321341),
    (24, 24, 20.0, 24, 0.014061291376796495),
    (24, 24, 60.0, 23, 1.9171841137257668e-4),
    (24, 24, 60.0, 24, 0.14228794643361404),
    (32, 32, 0.3, 31, 0.15985195570933375),
    (32, 32, 0.3, 32, 0.032868456856471184),
    (32, 32, 5.0, 31, 0.13188305337731021),
    (32, 32, 5.0, 32, -0.0040096586257176482),
    (32, 32, 20.0, 31, 0.12161351755458456),
    (32, 32, 20.0, 32, -0.015258387913095677),
    (32, 32, 60.0, 31, 0.084409408830859658),
    (32, 32, 60.0, 32, 0.0070617953554850129),
    (8, 40, 0.3, 7, 0.001467654080568322),
    (8, 40, 0.3, 8, -1.1263006213198073e16),
    (8, 40, 5.0, 7, 2.7487138025126941e14),
    (8, 40, 5.0, 8, -1.0301901690707273e16),
    (8, 40, 20.0, 7, 4.9476344989853745e15),
    (8, 40, 20.0, 8, 1.9942394748161149e15),
    (8, 40, 60.0, 7, 2.1949574243508616e11),
    (8, 40, 60.0, 8, 1.1261009626465256e16),
]


@pytest.mark.parametrize("nt,nr,x,k,ref", HALF_RANGE_REFS)
def test_half_range_frozen_references(nt, nr, x, k, ref):
    # the two-term recurrence is exact, so no order or point loses digits:
    # the incomplete-gamma sum it replaced was 2e2 off at 32x32, x = 5
    cfg = ChannelConfig(nt, nr)
    w = ensemble._row(x, cfg)[0]
    assert ensemble._half_range(w, x, cfg)[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [24, 32])
def test_q0_large_array_counts_levels(n):
    # int R_1 dlambda = N at q = 0, in u = sqrt(lambda) past the square
    # array's lambda^{-1/2} edge; R_1 is below 1e-25 past lambda = 400
    cfg = ChannelConfig(n, n)
    edges = np.linspace(0.0, 20.0, 41)
    total = math.fsum(
        quad(lambda u: 2.0 * u * level_density(u * u, cfg, 0.0), lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    assert total == pytest.approx(n, rel=0.0, abs=1e-10)


# R_n(eps, 1, 2, ...) sqrt(eps) as eps -> 0 at q = 0, square arrays (omega = 1),
# extrapolated from eps = 1e-10 and 1e-12, where R_n is finite
ORIGIN_LIMITS = [(2, 0.151632664928158), (3, 0.0314719280327718), (4, 0.00381102854032272)]


@pytest.mark.parametrize("n,limit", ORIGIN_LIMITS)
def test_correlation_at_origin_q0(n, limit):
    # a square array's x^{-1/2} edge is factored out of the doubled kernel
    # matrix, so a point at lambda = 0 gives +inf, as level_density does
    cfg = ChannelConfig(n, n)
    rest = [float(k) for k in range(1, n)]
    assert correlation_fn([0.0] + rest, cfg, 0.0) == math.inf
    eps = 1e-12
    assert correlation_fn([eps] + rest, cfg, 0.0) * math.sqrt(eps) == pytest.approx(limit, rel=1e-9)


@pytest.mark.parametrize("nt,nr", [(2, 2), (3, 3), (4, 4), (5, 5)])
def test_kernel_a_origin_is_signed_infinity(nt, nr):
    # A = x^a y^a times the stripped phi-pair sum: +-inf at x = 0, with the
    # sign the sum has just off the origin
    cfg = ChannelConfig(nt, nr)
    for y in (0.37, 1.9):
        value = kernel_a(0.0, y, cfg, 0.0)
        assert math.isinf(value)
        assert math.copysign(1.0, value) == math.copysign(1.0, kernel_a(1e-12, y, cfg, 0.0))
    assert kernel_a(0.0, 0.0, cfg, 0.0) == 0.0


@pytest.mark.parametrize("nt,nr", [(2, 2), (3, 6), (8, 8)])
def test_lue_core_rounds_alike_at_every_shape(nt, nr):
    # one point's rows give the same LUE core bit for bit as a 1-D row, as a
    # column of a node array (level density, capacity) and on the diagonal
    # or off it in a pair stack (correlation functions)
    cfg = ChannelConfig(nt, nr)
    x = np.random.default_rng(nt * nr).uniform(0.0, 25.0, 40)
    rows = [ensemble._row(u, cfg)[0] for u in x]
    single = [[float(ensemble._s_lue_core(wj, wk, cfg)) for wk in rows] for wj in rows]
    w = np.array(rows).T
    nodes = ensemble._s_lue_core(w, w, cfg)
    pairs = ensemble._s_lue_core(w[:, :, None], w[:, None, :], cfg)
    assert nodes.tolist() == [single[j][j] for j in range(len(x))]
    assert np.diagonal(pairs).tolist() == nodes.tolist()
    assert pairs.tolist() == single


@pytest.mark.parametrize("points,terms", [(2, 1), (5, 3), (8, 4), (6, 0)])
def test_pair_matrix_is_antisymmetric_and_the_term_sum(points, terms):
    rng = np.random.default_rng(10 * points + terms)
    p = rng.normal(size=(points, terms)) * np.exp(rng.uniform(-5.0, 5.0, terms))
    r = rng.normal(size=(points, terms)) * np.exp(rng.uniform(-5.0, 5.0, terms))
    got = ensemble._pair_matrix(p, r)
    assert np.array_equal(got, -got.T)
    assert not np.diagonal(got).any()
    ref = np.zeros((points, points))
    size = np.zeros((points, points))
    for pm, rm in zip(p.T, r.T):
        ref = ref + np.outer(pm, rm) - np.outer(rm, pm)
        size += np.abs(np.outer(pm, rm)) + np.abs(np.outer(rm, pm))
    assert np.all(np.abs(got - ref) <= 4.0 * terms * np.finfo(float).eps * size)


@pytest.mark.parametrize("nt,nr", [(1, 3), (2, 2), (3, 4), (4, 4), (5, 5)])
@pytest.mark.parametrize("q", [0.0, 0.35])
def test_phi_rows_and_leads_are_the_pointwise_ones(nt, nr, q):
    # one call per index over the orders-first rows of a point set gives each
    # point's phi_j and S-correction lead bit for bit as a call on its own row
    cfg = ChannelConfig(nt, nr)
    tau = crossover_tau(q)
    rows = [ensemble._row(u, cfg)[0] for u in np.random.default_rng(nt * nr).uniform(0.0, 12.0, 6)]
    w = np.array(rows).T
    phi = ensemble._phi_rows(w, cfg, tau)
    k2 = cfg.n - cfg.c
    assert phi.shape == (len(rows), k2)
    assert phi.tolist() == [[float(ensemble._phi_core(j, r, cfg, tau)) for j in range(k2)] for r in rows]
    lead = ensemble._s_corr_lead(w, cfg, tau)
    assert lead.tolist() == [float(ensemble._s_corr_lead(r, cfg, tau)) for r in rows]


@pytest.mark.parametrize("nt,nr", [(1, 1), (2, 3), (4, 4)])
def test_blocks_at_q1_are_the_lue_core(nt, nr):
    # q = 1 is determinantal: S alone, the LUE core of every pair of each set
    cfg = ChannelConfig(nt, nr)
    x = np.array([[0.0, 0.4, 1.3, 3.1], [2.2, 0.7, 5.0, 0.1]])[:, : cfg.n]
    s, a, b = ensemble._blocks(x, cfg, math.inf, CTRL)
    assert a is None and b is None
    assert s.shape == (2, cfg.n, cfg.n)
    for pts, block in zip(x, s):
        rows = [ensemble._row(u, cfg)[0] for u in pts]
        assert block.tolist() == [
            [float(ensemble._s_lue_core(wj, wk, cfg)) for wk in rows] for wj in rows
        ]


class TestSignedSqrtDet:
    # a negative determinant is round-off only within 1e-9 of the matrix's
    # Hadamard bound, for the doubled kernel (q < 1) and the plain one (q = 1)
    MAT = np.array([[3.0, 1.0], [2.0, 4.0]])
    LOG_HADAMARD = 0.5 * (math.log(10.0) + math.log(20.0))

    def test_round_off_negative_is_zero(self):
        logdet = self.LOG_HADAMARD + math.log(1e-10)
        assert ensemble._signed_sqrt_det(-1, logdet, self.MAT, 0.0, square=True) == 0.0

    def test_negative_beyond_tolerance_raises(self):
        logdet = self.LOG_HADAMARD + math.log(1e-8)
        with pytest.raises(NumericalConsistencyError, match="beyond tolerance"):
            ensemble._signed_sqrt_det(-1, logdet, self.MAT, 0.0, square=True)

    def test_round_off_negative_at_q1_is_zero(self):
        for logdet in (self.LOG_HADAMARD + math.log(1e-10), math.log(1e-30)):
            assert ensemble._signed_sqrt_det(-1, logdet, self.MAT, 0.0, square=False) == 0.0

    def test_negative_beyond_tolerance_at_q1_raises(self):
        logdet = self.LOG_HADAMARD + math.log(1e-8)
        with pytest.raises(NumericalConsistencyError, match="beyond tolerance"):
            ensemble._signed_sqrt_det(-1, logdet, self.MAT, 0.0, square=False)
