import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import hoytmimo
from hoytmimo import ensemble
from hoytmimo.ensemble import (
    ChannelConfig,
    NumericalConsistencyError,
    SeriesControl,
    correlation_fn,
    crossover_tau,
    g_tau,
    jpd,
    kernel_s,
    level_density,
)
import pointwise_oracles
from pointwise_oracles import kernel_a, kernel_b, omega_tau, skew_phi, skew_psi

CTRL = SeriesControl()

_NODES, _WEIGHTS = leggauss(240)
_CUT = 45.0
_XG = 0.5 * _CUT * (_NODES + 1.0)
_WG = 0.5 * _CUT * _WEIGHTS


def _integrate(f):
    return math.fsum(w * f(float(x)) for x, w in zip(_XG, _WG))


def _expected_pairing(n):
    z = np.zeros((n, n))
    for mu in range(n // 2):
        z[2 * mu, 2 * mu + 1] = 1.0
        z[2 * mu + 1, 2 * mu] = -1.0
    return z


class TestSkewOrthogonality:
    @pytest.mark.parametrize("nt,nr", [(3, 4), (4, 5)])
    @pytest.mark.parametrize("tau", [0.7, 0.0])
    def test_pairing_matrix(self, nt, nr, tau):
        cfg = ChannelConfig(nt, nr)
        n = cfg.n
        got = np.empty((n, n))
        for j in range(n):
            for k in range(n):
                got[j, k] = _integrate(
                    lambda x: skew_phi(j, x, cfg, tau) * skew_psi(k, x, cfg, tau, CTRL)
                )
        assert np.max(np.abs(got - _expected_pairing(n))) < 1e-6

    @pytest.mark.parametrize("tau", [0.7, 0.0])
    def test_odd_n_omega_condition(self, tau):
        cfg = ChannelConfig(3, 4)
        for j in range(cfg.n):
            val = _integrate(
                lambda x: omega_tau(x, cfg.a, tau, CTRL) * skew_phi(j, x, cfg, tau)
            )
            expect = 1.0 if j == cfg.n - 1 else 0.0
            assert val == pytest.approx(expect, abs=1e-6)

    def test_duality(self):
        cfg = ChannelConfig(4, 5)
        tau, x0 = 0.7, 1.3
        for j in (0, 1, 2):
            dual = _integrate(
                lambda y: (g_tau(x0, y, cfg.a, tau, CTRL) if y != x0 else 0.0)
                * skew_phi(j, y, cfg, tau)
            )
            assert dual == pytest.approx(skew_psi(j, x0, cfg, tau, CTRL), abs=1e-5)

    def test_index_range_odd_n(self):
        cfg = ChannelConfig(3, 4)
        with pytest.raises(ValueError):
            skew_phi(3, 1.0, cfg, 0.5)
        with pytest.raises(ValueError):
            skew_psi(5, 1.0, cfg, 0.5, CTRL)


class TestKernels:
    def test_a_antisymmetry(self):
        cfg = ChannelConfig(4, 5)
        for x, y in [(0.3, 1.7), (2.0, 0.9)]:
            assert kernel_a(x, y, cfg, 0.6, CTRL) == pytest.approx(
                -kernel_a(y, x, cfg, 0.6, CTRL), rel=1e-12
            )

    def test_b_antisymmetry(self):
        cfg = ChannelConfig(3, 4)
        for tau in (0.6, 0.0):
            v1 = kernel_b(0.4, 1.9, cfg, tau, CTRL)
            v2 = kernel_b(1.9, 0.4, cfg, tau, CTRL)
            assert v1 == pytest.approx(-v2, rel=1e-10)

    def test_s_lue_limit_is_density(self):
        cfg = ChannelConfig(3, 5)
        for lam in (0.4, 2.2, 7.0):
            x = lam / (2.0 * cfg.omega)
            assert kernel_s(x, x, cfg, math.inf) / (2.0 * cfg.omega) == pytest.approx(
                level_density(lam, cfg, 1.0), rel=1e-12
            )

    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4)])
    def test_s_assembled_vs_definitional(self, nt, nr):
        cfg = ChannelConfig(nt, nr)
        tau = 0.7
        for x, y in [(0.4, 1.1), (1.7, 0.25), (2.0, 2.0)]:
            defsum = 0.0
            for mu in range((cfg.n - cfg.c) // 2):
                defsum += skew_phi(2 * mu, x, cfg, tau) * skew_psi(2 * mu + 1, y, cfg, tau, CTRL)
                defsum -= skew_phi(2 * mu + 1, x, cfg, tau) * skew_psi(2 * mu, y, cfg, tau, CTRL)
            if cfg.c:
                defsum += skew_phi(cfg.n - 1, x, cfg, tau) * omega_tau(y, cfg.a, tau, CTRL)
            assert kernel_s(x, y, cfg, tau, CTRL) == pytest.approx(defsum, rel=1e-8)

    def test_b_satisfies_expansion_identity(self):
        # the directly summed tail must satisfy
        # B = -G + (finite psi-pair sum) + parity term, both parities; the
        # identity side cancels up to 1.5e4-fold (4x4, tau = 0.8), so it is
        # summed to convergence
        x, y = 0.7, 1.6
        fine = SeriesControl(rel_tol=1e-16)
        shapes = ((1, 1), (2, 2), (3, 3), (3, 4), (2, 5), (4, 4), (4, 5))
        for (nt, nr), tau in itertools.product(shapes, (0.05, 0.2, 0.8)):
            cfg = ChannelConfig(nt, nr)
            ident = -g_tau(x, y, cfg.a, tau, fine)
            for mu in range((cfg.n - cfg.c) // 2):
                ident += skew_psi(2 * mu, x, cfg, tau, fine) * skew_psi(2 * mu + 1, y, cfg, tau, fine)
                ident -= skew_psi(2 * mu + 1, x, cfg, tau, fine) * skew_psi(2 * mu, y, cfg, tau, fine)
            if cfg.c:
                ident += skew_psi(cfg.n - 1, x, cfg, tau, fine) * omega_tau(y, cfg.a, tau, fine)
                ident -= skew_psi(cfg.n - 1, y, cfg, tau, fine) * omega_tau(x, cfg.a, tau, fine)
            got = kernel_b(x, y, cfg, tau, CTRL)
            assert got == pytest.approx(ident, rel=1e-7), (nt, nr, tau)

    # B(0.25, 1.0) from the same identity evaluated with 50 significant
    # digits (mpmath, 45/tau + 60 polynomial orders), where the
    # e^{2N tau}-fold cancellation of the identity costs nothing; near
    # q = 1 odd N must not cancel either
    @pytest.mark.parametrize(
        "nt,nr,q,expect,rel",
        [
            (5, 5, 0.95, -2.3376329362151457e-18, 1e-12),
            (5, 5, 0.75, -1.6229048341726448e-09, 1e-12),
            (2, 5, 0.35, 0.03270827919200179, 1e-8),
            (4, 4, 0.1, -0.0794999543868929, 1e-7),
        ],
    )
    def test_b_matches_high_precision_values(self, nt, nr, q, expect, rel):
        cfg = ChannelConfig(nt, nr)
        got = kernel_b(0.25, 1.0, cfg, crossover_tau(q), CTRL)
        assert got == pytest.approx(expect, rel=rel, abs=0.0)

    def test_b_even_tail_matches_public_duals(self):
        # for even N the tail indices are plain psi's: explicit cross-check
        cfg = ChannelConfig(2, 2)
        tau, x, y = 0.8, 0.7, 1.6
        tail = 0.0
        for mu in range(cfg.n // 2, 40):
            tail += skew_psi(2 * mu + 1, x, cfg, tau, CTRL) * skew_psi(2 * mu, y, cfg, tau, CTRL)
            tail -= skew_psi(2 * mu, x, cfg, tau, CTRL) * skew_psi(2 * mu + 1, y, cfg, tau, CTRL)
        assert kernel_b(x, y, cfg, tau, CTRL) == pytest.approx(tail, rel=1e-10)

    def test_g_expansion_via_psi_pairs(self):
        # G = sum over all psi pairs: the expansion the B identity rests on
        cfg = ChannelConfig(2, 2)
        tau, x, y = 0.8, 0.7, 1.6
        total = 0.0
        for mu in range(40):
            total += skew_psi(2 * mu, x, cfg, tau, CTRL) * skew_psi(2 * mu + 1, y, cfg, tau, CTRL)
            total -= skew_psi(2 * mu + 1, x, cfg, tau, CTRL) * skew_psi(2 * mu, y, cfg, tau, CTRL)
        assert total == pytest.approx(g_tau(x, y, cfg.a, tau, CTRL), rel=1e-8)

    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 5), (5, 6)])
    @pytest.mark.parametrize("tau", [0.0, 0.7, math.inf])
    def test_kernel_integral_counts_levels(self, nt, nr, tau):
        cfg = ChannelConfig(nt, nr)
        val, _ = quad(
            lambda u: 2.0 * u * kernel_s(u * u, u * u, cfg, tau, CTRL),
            0.0,
            math.sqrt(_CUT),
            epsabs=0.0,
            epsrel=1e-9,
            limit=200,
        )
        assert val == pytest.approx(cfg.n, abs=1e-6)

    def test_a_b_reject_infinite_tau(self):
        cfg = ChannelConfig(2, 2)
        with pytest.raises(ValueError):
            kernel_a(1.0, 2.0, cfg, math.inf, CTRL)
        with pytest.raises(ValueError):
            kernel_b(1.0, 2.0, cfg, math.inf, CTRL)


class TestCorrelations:
    def test_r1_equals_density(self):
        # near q = 0 R_1 takes its S correction from the B rows, which stop
        # on their own rule, so both sides are summed to full precision
        fine = SeriesControl(rel_tol=1e-15, max_terms=10**6)
        for nt, nr in [(2, 2), (3, 4)]:
            cfg = ChannelConfig(nt, nr)
            for q, ctrl in ((0.0, CTRL), (0.5, CTRL), (1.0, CTRL), (0.06, fine), (0.1, fine)):
                for lam in (0.3, 1.0, 3.7):
                    assert correlation_fn([lam], cfg, q, ctrl) == pytest.approx(
                        level_density(lam, cfg, q, ctrl), rel=1e-10
                    )

    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 4), (4, 4)])
    def test_far_point_at_q1_in_either_order(self, nt, nr):
        # R_2 underflows with one point far in the tail; the q = 1 kernel
        # determinant then comes out a round-off negative in one order
        cfg = ChannelConfig(nt, nr)
        assert correlation_fn([1400.0, 2.0], cfg, 1.0) == 0.0
        assert correlation_fn([2.0, 1400.0], cfg, 1.0) == 0.0
        assert correlation_fn([[1400.0, 2.0], [2.0, 1400.0]], cfg, 1.0).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("q", [0.5, 0.3, 0.0, 1.0])
    def test_r2_equals_two_jpd(self, q):
        cfg = ChannelConfig(2, 2)
        rng = np.random.default_rng(42)
        for _ in range(5):
            pts = rng.uniform(0.05, 8.0, size=2)
            r2 = correlation_fn(pts, cfg, q, CTRL)
            assert r2 == pytest.approx(2.0 * jpd(pts, cfg, q, CTRL), rel=1e-4)

    def test_r3_equals_six_jpd(self):
        cfg = ChannelConfig(3, 4)
        rng = np.random.default_rng(7)
        for q in (0.5, 0.3):
            pts = rng.uniform(0.2, 8.0, size=3)
            r3 = correlation_fn(pts, cfg, q, CTRL)
            assert r3 == pytest.approx(6.0 * jpd(pts, cfg, q, CTRL), rel=1e-7)

    # |R_N - N! jpd| / (N! jpd) at the points 0.4 + 1.3 k with the default
    # control, as measured when _pair_matrix summed term by term; the kernel
    # determinant's cancellation sets these, and they must not double
    RN_VS_JPD = {
        4: (1.4235e-08, 1.3093e-11, 8.7276e-12, 1.5220e-12),
        5: (2.3894e-08, 2.9073e-11, 1.1548e-10, 8.4609e-11),
        6: (1.7461e-08, 1.9973e-10, 5.7744e-10, 4.1438e-09),
        7: (4.5116e-09, 3.0246e-10, 4.6733e-09, 1.9822e-07),
        8: (6.9254e-09, 1.9262e-10, 6.5060e-09, 9.2709e-06),
    }

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_rn_against_n_factorial_jpd(self, n):
        cfg = ChannelConfig(n, n)
        pts = [0.4 + 1.3 * k for k in range(n)]
        for q, before in zip((0.06, 0.3, 0.5, 0.8), self.RN_VS_JPD[n]):
            joint = math.factorial(n) * jpd(pts, cfg, q, CTRL)
            err = abs(correlation_fn(pts, cfg, q, CTRL) - joint) / abs(joint)
            assert err <= 2.0 * before, (q, err, before)

    def test_r2_marginal_gives_r1(self):
        cfg = ChannelConfig(2, 2)
        lam1, q = 1.3, 0.5
        val, _ = quad(
            lambda u: 2.0 * u * correlation_fn([lam1, u * u], cfg, q, CTRL),
            0.0,
            6.0,
            epsabs=0.0,
            epsrel=1e-8,
            limit=200,
        )
        assert val == pytest.approx(level_density(lam1, cfg, q, CTRL), rel=1e-4)

    def test_repulsion(self):
        cfg = ChannelConfig(2, 2)
        r2 = correlation_fn([1.0, 1.2], cfg, 0.5, CTRL)
        bound = level_density(1.0, cfg, 0.5, CTRL) * level_density(1.2, cfg, 0.5, CTRL)
        assert 0.0 <= r2 <= bound
        assert correlation_fn([1.0, 1.0], cfg, 0.5, CTRL) == 0.0

    def test_order_validation(self):
        cfg = ChannelConfig(2, 2)
        with pytest.raises(ValueError):
            correlation_fn([1.0, 2.0, 3.0], cfg, 0.5, CTRL)
        with pytest.raises(ValueError):
            correlation_fn([], cfg, 0.5, CTRL)

    def test_nan_determinant_is_a_numerical_failure(self, monkeypatch):
        # a NaN kernel entry (A at the origin of a square array at q = 0,
        # an infinite phi times zero) gives a NaN log-determinant; it must
        # surface as a numerical failure, not as a value
        monkeypatch.setattr(
            "hoytmimo.ensemble.linalg.determinant_signed_log", lambda m: (1.0, math.nan)
        )
        with pytest.raises(NumericalConsistencyError):
            correlation_fn([0.5, 1.0], ChannelConfig(2, 2), 0.5, CTRL)

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("pts", [[6.5, 900.0, 2000.0, 0.0], [0.0, 6.5, 900.0, 2000.0]])
    def test_origin_with_underflowed_determinant_is_a_numerical_failure(self, n, pts):
        # x^a is +inf at the origin of a square array at q = 0; with points far
        # in the tail the determinant underflows, and inf * 0 is no value
        # (this read NaN in one order of the points and 0.0 in the other)
        with pytest.raises(NumericalConsistencyError):
            correlation_fn(pts, ChannelConfig(n, n, omega=1.3), 0.0, CTRL)

    def test_origin_with_finite_determinant_stays_infinite(self):
        assert correlation_fn([6.5, 900.0, 0.0], ChannelConfig(5, 5, omega=1.3), 0.0, CTRL) == math.inf

    @pytest.mark.parametrize("nt,nr", [(3, 4), (4, 4), (4, 5)])
    def test_large_tau_stability(self, nt, nr):
        # near q = 1 the balanced blocks and the directly summed B tail
        # keep the determinant accurate (the B pieces would otherwise
        # cancel e^{2N tau}-fold)
        cfg = ChannelConfig(nt, nr)
        pts = [1.0, 3.0, 6.0][: cfg.n]
        r = correlation_fn(pts, cfg, 0.9999, CTRL)
        ref = correlation_fn(pts, cfg, 1.0, CTRL)
        assert math.isfinite(r)
        assert r == pytest.approx(ref, rel=1e-4)


# rotations of these points give point sets of every order, with the
# origin, a point near it and points far in the tail, where the weighted
# rows join in log space and the term tables differ most in length
STACK_POINTS = (0.0, 1e-3, 0.37, 1.9, 6.5, 900.0, 2000.0)
STACK_QS = (0.0, 0.06, 0.35, 0.75, 0.999, 1.0)


def bits(values):
    return [float(v).hex() for v in values]


class TestCorrelationStacks:
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 5), (3, 4), (4, 4), (5, 5), (6, 6)])
    def test_stack_equals_per_set_calls(self, nt, nr, omega):
        # a set's value is the per-set call's bit for bit, in any stack and
        # any order; a stack holding an undefined set raises as that set does
        cfg = ChannelConfig(nt, nr, omega)
        rotations = [STACK_POINTS[r:] + STACK_POINTS[:r] for r in range(len(STACK_POINTS))]
        for q in STACK_QS:
            for n in range(1, cfg.n + 1):
                sets = [list(rot[:n]) for rot in rotations]
                single, defined = [], []
                for pts in sets:
                    try:
                        single.append(correlation_fn(pts, cfg, q, CTRL))
                        defined.append(pts)
                    except NumericalConsistencyError:
                        pass
                if len(defined) < len(sets):
                    with pytest.raises(NumericalConsistencyError):
                        correlation_fn(sets, cfg, q, CTRL)
                stack = correlation_fn(np.array(defined).reshape(-1, n), cfg, q, CTRL)
                assert isinstance(stack, np.ndarray) and stack.shape == (len(defined),)
                assert bits(stack) == bits(single), (q, n)
                assert bits(correlation_fn(defined[::-1], cfg, q, CTRL)) == bits(single[::-1])

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_single_set_is_a_float(self, q):
        value = correlation_fn([0.4, 1.9], ChannelConfig(2, 3), q, CTRL)
        assert type(value) is float
        assert value == correlation_fn([[0.4, 1.9]], ChannelConfig(2, 3), q, CTRL)[0]

    def test_one_undefined_set_raises_for_the_stack(self):
        # the origin of a square array at q = 0 with the determinant underflowed
        cfg = ChannelConfig(5, 5, omega=1.3)
        good = [0.4, 1.3, 2.2, 3.1]
        assert correlation_fn([good, good[::-1]], cfg, 0.0, CTRL).shape == (2,)
        with pytest.raises(NumericalConsistencyError):
            correlation_fn([good, [6.5, 900.0, 2000.0, 0.0], good], cfg, 0.0, CTRL)

    def test_nan_determinant_in_a_stack_is_a_numerical_failure(self, monkeypatch):
        def one_nan(mats):
            sign, logdet = np.linalg.slogdet(mats)
            logdet[-1] = math.nan
            return sign, logdet

        monkeypatch.setattr("hoytmimo.ensemble.linalg.determinant_signed_log", one_nan)
        with pytest.raises(NumericalConsistencyError, match="NaN"):
            correlation_fn([[0.5, 1.0], [0.7, 2.0]], ChannelConfig(2, 2), 0.5, CTRL)

    @pytest.mark.parametrize(
        "points", [np.ones((2, 2, 2)), np.ones((3, 3)), np.ones((3, 0)), [[]], [], 1.0]
    )
    def test_shape_errors(self, points):
        # 3-D input, an order above N = 2 and an order 0 (a scalar has none)
        with pytest.raises(ValueError):
            correlation_fn(points, ChannelConfig(2, 2), 0.5, CTRL)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_empty_stack_is_an_empty_array(self, q):
        out = correlation_fn(np.empty((0, 2)), ChannelConfig(2, 2), q, CTRL)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_zero_weight_sets_skip_the_series(self):
        # x^{2a+1} = 0 at a point 0 of a non-square array: R_n is 0 without a
        # term table, so a budget no point could meet does not raise
        cfg = ChannelConfig(2, 4)
        tight = SeriesControl(max_terms=1)
        assert correlation_fn([0.0, 1.0], cfg, 0.3, tight) == 0.0
        with pytest.raises(ensemble.SeriesTruncationError):
            correlation_fn([[0.0, 1.0], [0.5, 1.0]], cfg, 0.3, tight)


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteArguments:
    # NaN and +-inf are rejected before any series is read: at 0 < q < 1 they
    # would run the whole term budget, at q = 0 and 1 give NaN or 0
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_library_functions(self, bad, q):
        cfg = ChannelConfig(2, 3)
        tau = crossover_tau(q)
        calls = [
            lambda: jpd([bad, 1.0], cfg, q, CTRL),
            lambda: jpd([[0.5, 1.0]] * 127 + [[1.0, bad]], cfg, q, CTRL),
            lambda: level_density(bad, cfg, q, CTRL),
            lambda: level_density(np.linspace(0.0, 8.0, 401).tolist() + [bad], cfg, q, CTRL),
            lambda: kernel_s(bad, 1.0, cfg, tau, CTRL),
            lambda: kernel_s(1.0, bad, cfg, tau, CTRL),
            lambda: correlation_fn([bad, 1.0], cfg, q, CTRL),
            lambda: correlation_fn([[0.5, 1.0], [1.0, bad]], cfg, q, CTRL),
        ]
        if 0.0 < q < 1.0:
            calls.append(lambda: g_tau(bad, 1.0, cfg.a, tau, CTRL))
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_nan_tau_is_rejected(self):
        with pytest.raises(ValueError):
            kernel_s(1.0, 1.0, ChannelConfig(2, 2), math.nan, CTRL)


class TestCorrelationAgainstSimulation:
    def test_pair_counts_match_r2(self):
        # raw ordered-pair statistics vs the analytic two-point function:
        # expected cell count is samples * integral of R2 over the cell
        from numpy.polynomial.legendre import leggauss

        from hoytmimo.montecarlo import _chunks, _spectra

        cfg = ChannelConfig(2, 2)
        q = 0.5
        samples = 200000
        edges = np.array([0.3, 1.2, 2.4, 4.2])
        nb = len(edges) - 1
        counts = np.zeros((nb, nb))
        for vals in _chunks(cfg, q, samples, 314, lambda h: _spectra(cfg, h)):
            ia = np.digitize(vals[:, 0], edges) - 1
            ib = np.digitize(vals[:, 1], edges) - 1
            ok = (ia >= 0) & (ia < nb) & (ib >= 0) & (ib < nb)
            np.add.at(counts, (ia[ok], ib[ok]), 1.0)
            np.add.at(counts, (ib[ok], ia[ok]), 1.0)
        nodes, wts = leggauss(12)
        for i in range(nb):
            for j in range(nb):
                xm, xr = 0.5 * (edges[i + 1] + edges[i]), 0.5 * (edges[i + 1] - edges[i])
                ym, yr = 0.5 * (edges[j + 1] + edges[j]), 0.5 * (edges[j + 1] - edges[j])
                tot = 0.0
                for u, wu in zip(nodes, wts):
                    for v, wv in zip(nodes, wts):
                        tot += wu * wv * correlation_fn(
                            [xm + xr * u, ym + yr * v], cfg, q, CTRL
                        )
                expect = samples * tot * xr * yr
                z = (counts[i, j] - expect) / math.sqrt(expect)
                assert abs(z) <= 4.0


POINTWISE_NAMES = ("g_zero", "omega_tau", "skew_phi", "skew_psi", "kernel_a", "kernel_b")


class TestImportPath:
    def test_package_and_cli_load_every_module(self):
        # a fresh interpreter, importing the same hoytmimo as this process:
        # every module of the package is in use
        package = Path(hoytmimo.__file__).resolve().parent
        code = (
            "import sys, hoytmimo, hoytmimo.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('hoytmimo')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(package.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        modules = {f"hoytmimo.{p.stem}" for p in package.glob("*.py")} - {"hoytmimo.__main__"}
        assert set(proc.stdout.split()) == modules - {"hoytmimo.__init__"} | {"hoytmimo"}

    @pytest.mark.parametrize("name", POINTWISE_NAMES)
    def test_pointwise_names_live_in_pointwise_only(self, name):
        # the oracles stay in the tests: no module of the package defines them
        assert callable(getattr(pointwise_oracles, name))
        assert name in pointwise_oracles.__all__
        for module in [m for k, m in sys.modules.items() if k.startswith("hoytmimo")]:
            assert not hasattr(module, name), module.__name__
